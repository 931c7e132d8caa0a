//go:build race

package gateway

// The race detector makes sync.Pool drop items at random, so pooled
// scratch is allocated again and allocation counts mean nothing.
func init() { raceEnabled = true }
