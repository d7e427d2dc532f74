// Command perfbench is the CaaSPER benchmark: it drives three workloads
// through the repository's public API and prints, as the last line of its
// standard output, one JSON object with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
//
//	bash perfbench/run.sh --workload fleet-month-plateau --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	fleet-month-plateau   events engine, 10 000 tenants × 30 days on plateau traces
//	fleet-day-chaos       stepped engine, 200 noisy tenants × 1 day, faults + NDJSON stream
//	serve-controller-loop in-process recommender service under an open-loop controller schedule
//
// Inputs are generated from --seed alone. Every run checks the program's
// outputs (result and event-stream digests for fleets, decision-stream
// replay for serve); see README.md for the metrics and what each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured: operation counts, whether
// every output checked out, and metric values by name.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
	// notes are human-readable report lines printed before the result.
	notes []string
	// tr is the traced run's span buffer (nil when untraced).
	tr *tracer
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed uint64, seconds float64, traced bool) (*outcome, error){
	"fleet-month-plateau":   func(s uint64, sec float64, tr bool) (*outcome, error) { return benchFleet(plateau, s, sec, tr) },
	"fleet-day-chaos":       func(s uint64, sec float64, tr bool) (*outcome, error) { return benchFleet(chaos, s, sec, tr) },
	"serve-controller-loop": benchServe,
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := runMain(run, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(run func(uint64, float64, bool) (*outcome, error), workload string, seed uint64, seconds int, traced bool) error {
	md := collectMeta(workload, seed, seconds, traced)
	out, err := run(seed, float64(seconds), traced)
	if err != nil {
		return err
	}
	out.set("max_rss_mb", maxRSSMB())

	names := endToEnd
	if traced {
		names = perLayer
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range names {
		v, ok := out.values[d.name]
		if !ok && !traced {
			return fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, boolInt(traced)))
	if out.tr != nil {
		if err := out.tr.write(stem + ".spans.jsonl"); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		out.notef("spans: %d kept (%d dropped) in %s.spans.jsonl", len(out.tr.spans), out.tr.dropped, stem)
	}
	record, err := json.MarshalIndent(struct {
		Meta   meta     `json:"meta"`
		Notes  []string `json:"notes"`
		Result result   `json:"result"`
	}{md, out.notes, res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(record, '\n'), 0o644); err != nil {
		return err
	}

	metaLine, err := json.Marshal(md)
	if err != nil {
		return err
	}
	fmt.Printf("# meta %s\n", metaLine)
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir receives each run's record and span dump.
const outDir = "perfbench/out"

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gomaxprocs is the scheduler's parallelism for this run.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
