package main

// Server-side numbers, read only through public surfaces: the
// gateway's /metrics, /slo and /monitor/history endpoints and the
// kernel's /proc files for each server process.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, v any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// scrapeMetrics reads a Prometheus text exposition into a map from
// series (name plus label set, as written) to value.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return out, nil
}

// shadowFates is the gateway's shadow-tap ledger: every tapped batch
// ends exactly one way.
type shadowFates struct {
	observed, dropped, undecodable, depth float64
}

func (f shadowFates) settled() float64 { return f.observed + f.dropped + f.undecodable }

func readShadow(gw string) (shadowFates, error) {
	m, err := scrapeMetrics(gw + "/metrics")
	if err != nil {
		return shadowFates{}, err
	}
	return shadowFates{
		observed:    m[`gateway_shadow_batches_total{fate="observed"}`],
		dropped:     m[`gateway_shadow_batches_total{fate="dropped"}`],
		undecodable: m[`gateway_shadow_batches_total{fate="undecodable"}`],
		depth:       m["gateway_shadow_queue_depth"],
	}, nil
}

// drain waits until the shadow queue is empty and every one of the
// tapped batches has settled.
func drain(gw string, tapped int64, timeout time.Duration) (shadowFates, error) {
	deadline := time.Now().Add(timeout)
	for {
		f, err := readShadow(gw)
		if err != nil {
			return f, err
		}
		if f.depth == 0 && f.settled() >= float64(tapped) {
			return f, nil
		}
		if time.Now().After(deadline) {
			return f, fmt.Errorf("shadow queue did not drain in %v: %.0f of %d batches settled, depth %.0f",
				timeout, f.settled(), tapped, f.depth)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sloStage mirrors one stage row of the gateway's /slo document, in
// seconds; p50 and p99 convert to milliseconds.
type sloStage struct {
	Stage string  `json:"stage"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

type sloDoc struct {
	Stages []sloStage `json:"stages"`
}

func (s sloStage) p50() float64 { return s.P50 * 1000 }
func (s sloStage) p99() float64 { return s.P99 * 1000 }

func (d sloDoc) stage(name string) sloStage {
	for _, s := range d.Stages {
		if s.Stage == name {
			return s
		}
	}
	return sloStage{}
}

// historyRecord is the part of a /monitor/history record the benchmark
// checks against its replay.
type historyRecord struct {
	RequestID string
	Estimate  float64
	KSMax     float64
}

// cpuTicks returns a process's user plus system CPU time in clock ticks
// (USER_HZ, 100 per second on Linux) from /proc/<pid>/stat.
func cpuTicks(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// fields[0] is the state (field 3), so utime (14) and stime (15)
	// sit at 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return utime + stime, nil
}

const ticksPerSecond = 100

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q", pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
