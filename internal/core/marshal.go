package core

import (
	"encoding/json"
	"fmt"
	"reflect"

	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
)

// JSON serialization for trained predictors and validators. The black box
// model itself is NOT serialized — it may live behind a network service —
// so a deserialized predictor must be re-attached to its model with
// AttachModel before Estimate (EstimateFromProba works immediately).
// Custom ScoreFuncs and error generators do not round-trip; only the
// built-in accuracy and AUC scores are supported.

// scoreTag maps the built-in score functions to stable wire names.
func scoreTag(f ScoreFunc) (string, error) {
	if f == nil {
		return "accuracy", nil
	}
	switch reflect.ValueOf(f).Pointer() {
	case reflect.ValueOf(AccuracyScore).Pointer():
		return "accuracy", nil
	case reflect.ValueOf(AUCScore).Pointer():
		return "auc", nil
	default:
		return "", fmt.Errorf("core: only the built-in accuracy and AUC score functions can be serialized")
	}
}

func scoreByTag(tag string) (ScoreFunc, error) {
	switch tag {
	case "", "accuracy":
		return AccuracyScore, nil
	case "auc":
		return AUCScore, nil
	default:
		return nil, fmt.Errorf("core: unknown score function %q", tag)
	}
}

// regressorTag maps the supported regressor types to wire names.
func regressorTag(r models.Regressor) (string, error) {
	switch r.(type) {
	case *models.RandomForestRegressor:
		return "random_forest", nil
	case *models.GBDTRegressor:
		return "gbdt", nil
	default:
		return "", fmt.Errorf("core: cannot serialize regressor type %T", r)
	}
}

func regressorByTag(tag string) (models.Regressor, error) {
	switch tag {
	case "random_forest":
		return &models.RandomForestRegressor{}, nil
	case "gbdt":
		return &models.GBDTRegressor{}, nil
	default:
		return nil, fmt.Errorf("core: unknown regressor type %q", tag)
	}
}

type matrixState struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

func matrixToState(m *linalg.Matrix) *matrixState {
	if m == nil {
		return nil
	}
	return &matrixState{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

func stateToMatrix(s *matrixState) (*linalg.Matrix, error) {
	if s == nil {
		return nil, nil
	}
	if len(s.Data) != s.Rows*s.Cols {
		return nil, fmt.Errorf("core: matrix state has %d values for %dx%d", len(s.Data), s.Rows, s.Cols)
	}
	return &linalg.Matrix{Rows: s.Rows, Cols: s.Cols, Data: s.Data}, nil
}

type predictorState struct {
	PercentileStep float64         `json:"percentile_step"`
	Score          string          `json:"score"`
	RegressorType  string          `json:"regressor_type"`
	Regressor      json.RawMessage `json:"regressor"`
	TestScore      float64         `json:"test_score"`
	TestOutputs    *matrixState    `json:"test_outputs"`
	TrainMAE       float64         `json:"train_mae"`
	NumExamples    int             `json:"num_examples"`
	CalibResiduals []float64       `json:"calib_residuals,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p *Predictor) MarshalJSON() ([]byte, error) {
	score, err := scoreTag(p.cfg.Score)
	if err != nil {
		return nil, err
	}
	regType, err := regressorTag(p.reg)
	if err != nil {
		return nil, err
	}
	regJSON, err := json.Marshal(p.reg)
	if err != nil {
		return nil, err
	}
	step := p.cfg.PercentileStep
	if step == 0 {
		step = 5
	}
	return json.Marshal(predictorState{
		PercentileStep: step,
		Score:          score,
		RegressorType:  regType,
		Regressor:      regJSON,
		TestScore:      p.testScore,
		TestOutputs:    matrixToState(p.testOutputs),
		TrainMAE:       p.trainMAE,
		NumExamples:    p.numExamples,
		CalibResiduals: p.calibResiduals,
	})
}

// UnmarshalJSON implements json.Unmarshaler. The model reference must be
// restored with AttachModel before calling Estimate.
func (p *Predictor) UnmarshalJSON(b []byte) error {
	var st predictorState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	score, err := scoreByTag(st.Score)
	if err != nil {
		return err
	}
	reg, err := regressorByTag(st.RegressorType)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(st.Regressor, reg); err != nil {
		return err
	}
	outputs, err := stateToMatrix(st.TestOutputs)
	if err != nil {
		return err
	}
	p.cfg = PredictorConfig{PercentileStep: st.PercentileStep, Score: score}
	p.reg = reg
	p.testScore = st.TestScore
	p.testOutputs = outputs
	p.trainMAE = st.TrainMAE
	p.numExamples = st.NumExamples
	p.calibResiduals = st.CalibResiduals
	p.model = nil
	return nil
}

// AttachModel re-binds a deserialized predictor to its black box model.
func (p *Predictor) AttachModel(model data.Model) { p.model = model }

type validatorState struct {
	Threshold         float64                `json:"threshold"`
	PercentileStep    float64                `json:"percentile_step"`
	DisableKSFeatures bool                   `json:"disable_ks_features"`
	Score             string                 `json:"score"`
	Classifier        *models.GBDTClassifier `json:"classifier"`
	Predictor         *Predictor             `json:"predictor"`
	TestScore         float64                `json:"test_score"`
	TestOutputs       *matrixState           `json:"test_outputs"`
	TrainPos          int                    `json:"train_pos"`
	TrainTotal        int                    `json:"train_total"`
}

// MarshalJSON implements json.Marshaler.
func (v *Validator) MarshalJSON() ([]byte, error) {
	score, err := scoreTag(v.cfg.Score)
	if err != nil {
		return nil, err
	}
	step := v.cfg.PercentileStep
	if step == 0 {
		step = 5
	}
	return json.Marshal(validatorState{
		Threshold:         v.cfg.Threshold,
		PercentileStep:    step,
		DisableKSFeatures: v.cfg.DisableKSFeatures,
		Score:             score,
		Classifier:        v.clf,
		Predictor:         v.predictor,
		TestScore:         v.testScore,
		TestOutputs:       matrixToState(v.testOutputs),
		TrainPos:          v.trainPos,
		TrainTotal:        v.trainTotal,
	})
}

// UnmarshalJSON implements json.Unmarshaler. The model reference must be
// restored with AttachModel before calling Violation.
func (v *Validator) UnmarshalJSON(b []byte) error {
	var st validatorState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	score, err := scoreByTag(st.Score)
	if err != nil {
		return err
	}
	outputs, err := stateToMatrix(st.TestOutputs)
	if err != nil {
		return err
	}
	v.cfg = ValidatorConfig{
		Threshold:         st.Threshold,
		PercentileStep:    st.PercentileStep,
		DisableKSFeatures: st.DisableKSFeatures,
		Score:             score,
	}
	v.clf = st.Classifier
	v.predictor = st.Predictor
	v.testScore = st.TestScore
	v.testOutputs = outputs
	v.sortedRef = SortedColumns(outputs)
	v.trainPos = st.TrainPos
	v.trainTotal = st.TrainTotal
	v.model = nil
	return nil
}

// AttachModel re-binds a deserialized validator to its black box model.
func (v *Validator) AttachModel(model data.Model) { v.model = model }
