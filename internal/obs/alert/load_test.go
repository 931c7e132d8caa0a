package alert

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blackboxval/internal/obs"
)

// refLoadRules is LoadRules as it was before its read was bounded: the
// reference every input under the bound must agree with.
func refLoadRules(path string) ([]Rule, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("alert: reading rules: %w", err)
	}
	var bare []Rule
	if err := json.Unmarshal(buf, &bare); err == nil {
		return bare, nil
	}
	var wrapped rulesFile
	if err := json.Unmarshal(buf, &wrapped); err != nil {
		return nil, fmt.Errorf("alert: parsing rules %s: %w", path, err)
	}
	if wrapped.Rules == nil {
		return nil, fmt.Errorf("alert: %s has neither a rule array nor a \"rules\" key", path)
	}
	return wrapped.Rules, nil
}

// FuzzLoadRules: the rule loader never panics, and any file under the
// read bound yields the same rules or the same error as the unbounded
// loader it replaced.
func FuzzLoadRules(f *testing.F) {
	f.Add([]byte(`[{"name":"low","series":"estimate","op":"<","threshold":0.8,"for_windows":3}]`))
	f.Add([]byte(`{"rules":[{"name":"ks","series":"ks_max","op":">=","threshold":0.3,"reduce":"max"}]}`))
	f.Add([]byte(`{"rules":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":1}]`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "rules.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadRules(path)
		want, wantErr := refLoadRules(path)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("LoadRules = %v, %v; want %v, %v", got, err, want, wantErr)
		}
	})
}

func TestLoadRulesRejectsOversizedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(obs.MaxFileBytes + 1); err != nil { // sparse: nothing is written
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadRules(path); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("LoadRules on an oversized file: err = %v, want the size limit", err)
	}
}
