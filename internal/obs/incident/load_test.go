package incident

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

// refLoadBundle is LoadBundle as it was before its read was bounded:
// the reference every input under the bound must agree with.
func refLoadBundle(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("incident: decoding %s: %w", path, err)
	}
	if b.ID == "" {
		return nil, fmt.Errorf("incident: %s is not an incident bundle (no id)", path)
	}
	return &b, nil
}

// FuzzLoadBundle: the bundle loader never panics, and any file under
// the read bound yields the same bundle or the same error as the
// unbounded loader it replaced.
func FuzzLoadBundle(f *testing.F) {
	f.Add([]byte(`{"id":"inc-000001","captured_at":"2026-01-02T03:04:05Z","reason":"manual","alarming":true,` +
		`"reservoir_rows":3,"rows_seen":9,"batches_seen":2,"seed":1,"reservoir_windows":{"min":0,"max":1},` +
		`"timeline":[{"index":0,"start":"2026-01-02T03:04:05+05:30","end":"2026-01-02T03:04:06Z","batches":1,` +
		`"series":{"estimate":{"count":1,"sum":0.5,"min":0.5,"max":0.5,"last":0.5,"quantiles":{"p50":0.5},` +
		`"sum_exact":{"limbs":[{"i":16,"v":"10000000000000"}]},"sketch":{"v":1,"count":1,"min":0.5,"max":0.5,"xs":[0.5]}}}}]}`))
	f.Add([]byte(`{"id":""}`))
	f.Add([]byte(`{"id":"x","timeline":[{"series":{"e":{"sketch":{"v":2}}}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "inc-000001.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBundle(path)
		want, wantErr := refLoadBundle(path)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("LoadBundle = %+v, %v; want %+v, %v", got, err, want, wantErr)
		}
	})
}

func TestLoadBundleRejectsOversizedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inc-000001.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(obs.MaxFileBytes + 1); err != nil { // sparse: nothing is written
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadBundle(path); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("LoadBundle on an oversized file: err = %v, want the size limit", err)
	}
}
