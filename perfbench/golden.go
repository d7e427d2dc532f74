package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// goldenDir holds the recorded correctness digests, one file per
// workload, keyed by seed. A seed seen for the first time is recorded;
// every later run of that (workload, seed) must reproduce it.
const goldenDir = "perfbench/golden"

// golden is the recorded outcome of one (workload, seed).
type golden struct {
	// Result is resultDigest of the FleetResult.
	Result string `json:"result"`
	// Stream is the SHA-256 of the NDJSON event stream ("" when off).
	Stream string `json:"stream,omitempty"`
	// Scalings / Deferrals / Aborted are readable totals for diagnosing
	// a mismatch.
	Scalings  int `json:"scalings"`
	Deferrals int `json:"deferrals"`
	Aborted   int `json:"aborted"`
}

func goldenPath(workload string) string {
	return filepath.Join(goldenDir, workload+".json")
}

func loadGoldens(workload string) (map[string]golden, error) {
	data, err := os.ReadFile(goldenPath(workload))
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]golden{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]golden{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	return m, nil
}

// goldenFor returns the digest recorded for (workload, seed), first
// recording g when the seed has none.
func goldenFor(workload string, seed uint64, g golden) (golden, error) {
	m, err := loadGoldens(workload)
	if err != nil {
		return golden{}, err
	}
	key := strconv.FormatUint(seed, 10)
	if want, ok := m[key]; ok {
		return want, nil
	}
	m[key] = g
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return golden{}, err
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return golden{}, err
	}
	tmp := goldenPath(workload) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return golden{}, err
	}
	return g, os.Rename(tmp, goldenPath(workload))
}

// goldenCheck compares every replay of one (workload, seed) with the
// recorded digest.
type goldenCheck struct {
	workload string
	seed     uint64
	want     *golden
}

func (c *goldenCheck) matches(g golden) (bool, error) {
	if c.want == nil {
		want, err := goldenFor(c.workload, c.seed, g)
		if err != nil {
			return false, fmt.Errorf("golden digests: %w", err)
		}
		c.want = &want
	}
	return *c.want == g, nil
}
