package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// postMultiSamples posts an NDJSON batch carrying RAM/disk readings next
// to the CPU ones.
func postMultiSamples(t *testing.T, base, id string, cpu, ram, disk []float64) {
	t.Helper()
	var b strings.Builder
	for i := range cpu {
		fmt.Fprintf(&b, `{"cpu":%g,"ram_gb":%g,"disk_gb":%g}`+"\n", cpu[i], ram[i], disk[i])
	}
	code, body, _ := do(t, http.MethodPost, base+"/v1/tenants/"+id+"/samples", b.String())
	if code != http.StatusAccepted {
		t.Fatalf("samples: %d %s", code, body)
	}
}

func statusRow(t *testing.T, base, id string) tenantStatus {
	t.Helper()
	code, body, _ := do(t, http.MethodGet, base+"/v1/tenants/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeMultiTenantLifecycle drives a multi-resource tenant end to
// end: RAM grows under the dual-threshold policy when the reported usage
// outruns the grant, disk grows (and only grows) behind its high-water
// mark, and the decision stream carries the appended ram_from/ram_to and
// disk_to fields.
func TestServeMultiTenantLifecycle(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "m",
		`{"policy":"control","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"initial_ram_gb":4,"disk_gb":10}`)

	n := 60
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 2
		ram[i] = 9 // well above the 4 GB grant
		disk[i] = 9 + float64(i)*0.2
	}
	postMultiSamples(t, ts.URL, "m", cpu, ram, disk)
	waitSamples(t, ts.URL, "m", n)

	st := statusRow(t, ts.URL, "m")
	if st.RAMGB <= 4 || st.MaxRAMGB != 16 {
		t.Fatalf("RAM grant should have grown past 4 GB: %+v", st)
	}
	if st.DiskGB <= 10 {
		t.Fatalf("disk volume should have grown past 10 GB: %+v", st)
	}
	stream := decisionsOf(t, ts.URL, "m")
	if !strings.Contains(stream, `"ram_to"`) || !strings.Contains(stream, `"disk_to"`) {
		t.Fatalf("decision stream misses multi fields:\n%s", stream)
	}
}

// TestServeCPUOnlyUnchanged pins the byte-identity contract on the HTTP
// surface: a CPU-only tenant's status row and decision NDJSON contain
// none of the appended multi fields.
func TestServeCPUOnlyUnchanged(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "solo", `{"policy":"caasper","max_cores":8}`)
	postSamples(t, ts.URL, "solo", rampUsage(40))
	waitSamples(t, ts.URL, "solo", 40)

	_, body, _ := do(t, http.MethodGet, ts.URL+"/v1/tenants/solo", "")
	for _, field := range []string{"ram_gb", "max_ram_gb", "disk_gb", "replicas"} {
		if strings.Contains(body, field) {
			t.Fatalf("CPU-only status leaks %q: %s", field, body)
		}
	}
	stream := decisionsOf(t, ts.URL, "solo")
	for _, field := range []string{"ram_from", "ram_to", "disk_to", "replicas"} {
		if strings.Contains(stream, field) {
			t.Fatalf("CPU-only decisions leak %q:\n%s", field, stream)
		}
	}
}

// TestServeAdminRangeMulti retunes a CPU-only tenant into a
// multi-resource one through the admin range verb and checks replicas
// arrive via the horizontal-overflow path when the CPU target pins.
func TestServeAdminRangeMulti(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "web", `{"policy":"control","max_cores":4,"initial_cores":4,"min_cores":4}`)

	code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/web/range",
		`{"min_cores":4,"max_cores":4,"min_ram_gb":2,"max_ram_gb":8,"max_replicas":3}`)
	if code != http.StatusOK {
		t.Fatalf("admin range: %d %s", code, body)
	}
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.RAMGB != 2 || st.MaxRAMGB != 8 || st.Replicas != 1 {
		t.Fatalf("range upgrade row = %+v", st)
	}

	// Pinned at 4 cores with hot usage → replicas climb.
	n := 40
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 3.9
		ram[i] = 1
	}
	postMultiSamples(t, ts.URL, "web", cpu, ram, disk)
	waitSamples(t, ts.URL, "web", n)
	if st := statusRow(t, ts.URL, "web"); st.Replicas < 2 {
		t.Fatalf("pinned hot tier should have overflowed horizontally: %+v", st)
	}

	// Invalid multi bounds are rejected.
	code, _, _ = do(t, http.MethodPut, ts.URL+"/v1/admin/tenants/web/range",
		`{"min_cores":1,"max_cores":4,"min_ram_gb":9,"max_ram_gb":8}`)
	if code != http.StatusBadRequest {
		t.Fatalf("inverted RAM range accepted: %d", code)
	}
}

// TestServeMultiConfigValidation covers the registration-time checks.
func TestServeMultiConfigValidation(t *testing.T) {
	_, ts := testServer(t, Options{})
	for name, cfg := range map[string]string{
		"ram min without max":   `{"max_cores":4,"min_ram_gb":2}`,
		"ram min above max":     `{"max_cores":4,"min_ram_gb":9,"max_ram_gb":8}`,
		"initial ram outside":   `{"max_cores":4,"min_ram_gb":2,"max_ram_gb":8,"initial_ram_gb":9}`,
		"max disk without disk": `{"max_cores":4,"max_disk_gb":50}`,
		"disk above max disk":   `{"max_cores":4,"disk_gb":60,"max_disk_gb":50}`,
		"negative replicas":     `{"max_cores":4,"max_replicas":-1}`,
	} {
		code, body, _ := do(t, http.MethodPut, ts.URL+"/v1/tenants/bad", cfg)
		if code != http.StatusBadRequest {
			t.Errorf("%s: accepted (%d %s)", name, code, body)
		}
	}
}

// TestSnapshotV1MigrationBitIdentical pins the version migration: a v1
// CPU-only checkpoint (the pre-vector format) restored by the v2 server
// resumes with bit-identical subsequent decisions and RAM/disk left at
// their defaults.
func TestSnapshotV1MigrationBitIdentical(t *testing.T) {
	usage := rampUsage(200)
	const cut = 87
	cfg := `{"policy":"caasper","max_cores":10,"initial_cores":5}`

	// Control: uninterrupted server over the full stream.
	_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ctl.URL, "mig", cfg)
	postSamples(t, ctl.URL, "mig", usage)
	waitSamples(t, ctl.URL, "mig", len(usage))

	// First half on a snapshotting server.
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	register(t, ts1, "mig", cfg)
	postSamples(t, ts1, "mig", usage[:cut])
	waitSamples(t, ts1, "mig", cut)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Downgrade the checkpoint to the v1 format. A CPU-only tenant line
	// is already byte-identical across versions (every v2 field is
	// omitempty), so rewriting the header version is the whole migration.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"version":2`) {
		t.Fatalf("snapshot not v2: %s", raw)
	}
	for _, field := range []string{"ram_gb", "disk_gb", "replicas", "ram_peak"} {
		if strings.Contains(string(raw), field) {
			t.Fatalf("CPU-only v2 tenant line leaks %q — v1 compatibility broken: %s", field, raw)
		}
	}
	v1 := strings.Replace(string(raw), `"version":2`, `"version":1`, 1)
	if err := os.WriteFile(snap, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restore the v1 file into a fresh v2 server and finish the stream.
	s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatalf("v2 server must restore a v1 checkpoint: %v", err)
	}
	ts2 := newTestFrontend(t, s2)
	defer s2.Close()
	if st := statusRow(t, ts2, "mig"); st.RAMGB != 0 || st.DiskGB != 0 || st.Replicas != 0 {
		t.Fatalf("v1 tenant restored with non-default multi state: %+v", st)
	}
	postSamples(t, ts2, "mig", usage[cut:])
	waitSamples(t, ts2, "mig", len(usage))

	want := decisionsOf(t, ctl.URL, "mig")
	got := decisionsOf(t, ts2, "mig")
	if want != got {
		t.Fatalf("v1-migrated stream diverged:\ncontrol:\n%s\nmigrated:\n%s", want, got)
	}
}

// TestSnapshotMultiRoundTrip extends the durability contract to the
// vector: a multi-resource tenant interrupted mid-window resumes with the
// same grants and a decision stream identical to an uninterrupted run.
func TestSnapshotMultiRoundTrip(t *testing.T) {
	n := 120
	const cut = 53
	cpu := make([]float64, n)
	ram := make([]float64, n)
	disk := make([]float64, n)
	for i := range cpu {
		cpu[i] = 2 + float64(i%5)
		ram[i] = 3 + float64(i%9)
		disk[i] = 8 + float64(i)*0.1
	}
	cfg := `{"policy":"control","max_cores":8,"min_ram_gb":2,"max_ram_gb":16,"disk_gb":10}`

	_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ctl.URL, "mv", cfg)
	postMultiSamples(t, ctl.URL, "mv", cpu, ram, disk)
	waitSamples(t, ctl.URL, "mv", n)

	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	register(t, ts1, "mv", cfg)
	postMultiSamples(t, ts1, "mv", cpu[:cut], ram[:cut], disk[:cut])
	waitSamples(t, ts1, "mv", cut)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestFrontend(t, s2)
	defer s2.Close()
	postMultiSamples(t, ts2, "mv", cpu[cut:], ram[cut:], disk[cut:])
	waitSamples(t, ts2, "mv", n)

	if want, got := decisionsOf(t, ctl.URL, "mv"), decisionsOf(t, ts2, "mv"); want != got {
		t.Fatalf("multi stream diverged after restart:\ncontrol:\n%s\nrestored:\n%s", want, got)
	}
	if want, got := statusRow(t, ctl.URL, "mv"), statusRow(t, ts2, "mv"); want != got {
		t.Fatalf("multi status diverged after restart: %+v vs %+v", want, got)
	}
}

// TestServeScaleInNeedsCapacity pins the scale-in half of the shared
// vertical-first rule: once an overflowed tenant's CPU target drops below
// max_cores, a replica is removed only if one fewer pod could absorb the
// set's peak total under the 25% headroom. Here two pods each report 1.6
// cores (3.2 in total), more than one 4-core pod's 3-core budget, so the
// set must hold at 2 replicas instead of flapping back to 1.
func TestServeScaleInNeedsCapacity(t *testing.T) {
	_, ts := testServer(t, Options{DecisionEveryMinutes: 10})
	register(t, ts.URL, "h", `{"policy":"caasper","max_cores":4,"window":10,"max_replicas":3}`)

	post := func(cpu float64, n int) {
		t.Helper()
		samples := make([]float64, n)
		ram := make([]float64, n)
		disk := make([]float64, n)
		for i := range samples {
			samples[i] = cpu
		}
		postMultiSamples(t, ts.URL, "h", samples, ram, disk)
	}
	seen := 0
	for statusRow(t, ts.URL, "h").Replicas < 2 {
		if seen >= 200 {
			t.Fatalf("hot tenant never overflowed to 2 replicas: %+v", statusRow(t, ts.URL, "h"))
		}
		post(3.9, 10)
		seen += 10
		waitSamples(t, ts.URL, "h", seen)
	}
	if st := statusRow(t, ts.URL, "h"); st.Replicas != 2 || st.Cores != 4 {
		t.Fatalf("want 2 replicas pinned at 4 cores, got %+v", st)
	}

	for i := 0; i < 6; i++ {
		post(1.6, 10)
		seen += 10
		waitSamples(t, ts.URL, "h", seen)
		if st := statusRow(t, ts.URL, "h"); st.Replicas != 2 {
			t.Fatalf("replicas = %d after per-pod 1.6 cores (total 3.2 > one pod's 3): want 2 held; status %+v", st.Replicas, st)
		}
	}
	if st := statusRow(t, ts.URL, "h"); st.Cores >= 4 {
		t.Fatalf("CPU target should have fallen below max_cores 4 for the scenario to bite: %+v", st)
	}
}
