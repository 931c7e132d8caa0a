package obs

import (
	"fmt"
	"io"
	"os"
)

// MaxFileBytes bounds the operator-supplied JSON files the
// observability tools decode whole (alert rules, incident bundles), as
// one tsdb record and one /federate body are bounded.
const MaxFileBytes = 64 << 20

// ReadFile reads path whole like os.ReadFile (with the same errors),
// but fails instead of reading a file larger than MaxFileBytes.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() && st.Size() > MaxFileBytes {
		return nil, fmt.Errorf("%s is %d bytes, over the %d-byte limit", path, st.Size(), MaxFileBytes)
	}
	buf, err := io.ReadAll(io.LimitReader(f, MaxFileBytes+1))
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxFileBytes { // grew past the bound while being read
		return nil, fmt.Errorf("%s is over the %d-byte limit", path, MaxFileBytes)
	}
	return buf, nil
}
