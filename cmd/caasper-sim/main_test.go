package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"caasper"
)

func TestLoadTraceSelection(t *testing.T) {
	if _, err := loadTrace("", "", "", 1); err == nil {
		t.Error("no source should error")
	}
	if _, err := loadTrace("nope", "", "", 1); err == nil {
		t.Error("unknown workload should error")
	}
	tr, err := loadTrace("workday12h", "", "", 1)
	if err != nil || tr.Len() == 0 {
		t.Errorf("workload load failed: %v", err)
	}
	tr, err = loadTrace("", "c_1", "", 1)
	if err != nil || tr.Len() == 0 {
		t.Errorf("alibaba load failed: %v", err)
	}
	if _, err := loadTrace("", "", "/nonexistent/file.csv", 1); err == nil {
		t.Error("missing trace file should error")
	}
}

func TestBuildRecommenderSelection(t *testing.T) {
	names := []string{"caasper", "caasper-proactive", "vpa", "openshift", "autopilot", "control"}
	for _, n := range names {
		rec, err := buildRecommender(n, 16, 8, 40, 60, 1440)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if rec.Name() == "" {
			t.Errorf("%s: empty name", n)
		}
	}
	if _, err := buildRecommender("bogus", 16, 8, 40, 60, 1440); err == nil {
		t.Error("unknown recommender should error")
	}
}

func TestKnownWorkloadsLists(t *testing.T) {
	s := knownWorkloads()
	if !strings.Contains(s, "workday12h") || !strings.Contains(s, "step62h") {
		t.Errorf("known workloads = %q", s)
	}
}

func TestAsciiChart(t *testing.T) {
	demand := []float64{1, 2, 3, 4, 5, 6}
	limits := []float64{6, 6, 6, 6, 6, 6}
	out := asciiChart(demand, limits, 3, 5)
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Errorf("chart missing marks:\n%s", out)
	}
	if !strings.Contains(out, "max 6.0") {
		t.Errorf("chart header wrong:\n%s", out)
	}
	if asciiChart(nil, nil, 10, 5) != "" {
		t.Error("empty chart should be empty")
	}
	// All-zero series must not divide by zero.
	if out := asciiChart([]float64{0, 0}, []float64{0, 0}, 2, 3); out == "" {
		t.Error("zero chart should still render")
	}
}

func TestEndToEndSimViaHelpers(t *testing.T) {
	tr, err := loadTrace("workday12h", "", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := buildRecommender("caasper", 8, 0, 40, 60, 720)
	if err != nil {
		t.Fatal(err)
	}
	opts := caasper.DefaultSimOptions(6, 8)
	res, err := caasper.Simulate(tr, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minutes != int(12*time.Hour/time.Minute) {
		t.Errorf("minutes = %d", res.Minutes)
	}
}

func TestVectorResourcesRejectsCPUEntry(t *testing.T) {
	cpu := caasper.DefaultSimOptions(4, 12).Resources
	_, err := vectorResources("cpu=2-12,ram=4-32,disk=20-100", cpu)
	if !errors.Is(err, caasper.ErrInvalidConfig) {
		t.Fatalf("cpu= entry: want ErrInvalidConfig, got %v", err)
	}
	if !strings.Contains(err.Error(), "-initial/-max") {
		t.Errorf("error should name the CPU flags: %v", err)
	}

	rr, err := vectorResources("ram=4-32,disk=20-100", cpu)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Initial.CPUCores != cpu.Initial.CPUCores || rr.Min.CPUCores != cpu.Min.CPUCores || rr.Max.CPUCores != cpu.Max.CPUCores {
		t.Errorf("CPU bounds %+v not taken from the flags %+v", rr, cpu)
	}
	if rr.Max.RAMGB != 32 || rr.Initial.DiskGB != 20 {
		t.Errorf("non-CPU dimensions lost: %+v", rr)
	}
}
