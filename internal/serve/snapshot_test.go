package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caasper/internal/obs"
)

// feedHalves posts usage to a server in two halves with an optional
// action between them, then returns the explained decision stream.
func decisionsOf(t *testing.T, base, id string) string {
	t.Helper()
	code, body, _ := do(t, http.MethodGet, base+"/v1/tenants/"+id+"/decisions?explain=1", "")
	if code != http.StatusOK {
		t.Fatalf("decisions: %d %s", code, body)
	}
	return body
}

// TestSnapshotRestartBitIdentical pins the durability contract: a server
// stopped mid-window, checkpointed and restored emits byte-for-byte the
// same subsequent decision NDJSON as an uninterrupted server fed the
// identical sample stream. The cut points land mid-warm-up, mid-window
// and past a full window to cover the mirrored-ring replay paths.
func TestSnapshotRestartBitIdentical(t *testing.T) {
	usage := rampUsage(240)
	tenants := []struct{ id, cfg string }{
		{"re", `{"policy":"caasper","max_cores":10,"initial_cores":5}`},
		{"pro", `{"policy":"caasper-proactive","max_cores":10,"initial_cores":5}`},
		{"narrow", `{"policy":"caasper","max_cores":10,"initial_cores":5,"window":12}`},
	}

	for _, cut := range []int{17, 90, 203} {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			// Control: one uninterrupted server over the full stream.
			_, ctlURL := testServer(t, Options{DecisionEveryMinutes: 10})
			for _, tn := range tenants {
				register(t, ctlURL.URL, tn.id, tn.cfg)
				postSamples(t, ctlURL.URL, tn.id, usage)
				waitSamples(t, ctlURL.URL, tn.id, len(usage))
			}

			// Interrupted: first half, drain + snapshot, restore into a
			// fresh server, second half.
			snap := filepath.Join(t.TempDir(), "serve.snapshot")
			s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := newTestFrontend(t, s1)
			for _, tn := range tenants {
				register(t, ts1, tn.id, tn.cfg)
				postSamples(t, ts1, tn.id, usage[:cut])
				waitSamples(t, ts1, tn.id, cut)
			}
			if err := s1.Close(); err != nil { // drain + checkpoint
				t.Fatal(err)
			}

			s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := newTestFrontend(t, s2)
			defer s2.Close()
			for _, tn := range tenants {
				// Restored server already knows the tenant — no re-PUT.
				postSamples(t, ts2, tn.id, usage[cut:])
				waitSamples(t, ts2, tn.id, len(usage))
			}

			for _, tn := range tenants {
				want := decisionsOf(t, ctlURL.URL, tn.id)
				got := decisionsOf(t, ts2, tn.id)
				if want != got {
					t.Errorf("tenant %s: decision stream diverged after restart at sample %d\ncontrol:\n%s\nrestored:\n%s",
						tn.id, cut, want, got)
				}
			}
		})
	}
}

// TestSnapshotBaselineColdRestore pins the documented contract for
// policies without recommend.StateSnapshotter (the decayed-histogram VPA
// baseline): the observation state restores cold, but the allocation,
// sample clock, sequence numbers and decision log all carry over.
func TestSnapshotBaselineColdRestore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	register(t, ts1, "base", `{"policy":"vpa","max_cores":10}`)
	postSamples(t, ts1, "base", rampUsage(50))
	waitSamples(t, ts1, "base", 50)
	preLog := decisionsOf(t, ts1, "base")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestFrontend(t, s2)
	defer s2.Close()
	_, body, _ := do(t, http.MethodGet, ts2+"/v1/tenants/base", "")
	var st tenantStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != 50 || st.Decision != 5 {
		t.Fatalf("restored status = %+v (want sample clock and seq carried over)", st)
	}
	if got := decisionsOf(t, ts2, "base"); got != preLog {
		t.Fatalf("restored decision log diverged:\n%s\nvs\n%s", got, preLog)
	}
	postSamples(t, ts2, "base", rampUsage(10))
	waitSamples(t, ts2, "base", 60)
	_, body, _ = do(t, http.MethodGet, ts2+"/v1/tenants/base/decisions?since=5", "")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one post-restore decision, got %d", len(lines))
	}
	var rec DecisionRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 || rec.Minute != 59 {
		t.Fatalf("post-restore decision = %+v (want seq 6 at minute 59)", rec)
	}
}

// TestSnapshotFileShape pins the checkpoint format: versioned header plus
// one sorted tenant line each.
func TestSnapshotFileShape(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s, err := New(Options{SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestFrontend(t, s)
	register(t, ts, "b", `{"max_cores":4}`)
	register(t, ts, "a", `{"max_cores":4}`)
	postSamples(t, ts, "a", rampUsage(25))
	waitSamples(t, ts, "a", 25)

	code, _, _ := do(t, http.MethodPost, ts+"/v1/admin/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d", code)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("snapshot has %d lines, want header + 2 tenants", len(lines))
	}
	var hdr snapshotHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Format != "caasper-serve" || hdr.Version != snapshotVersion || hdr.Tenants != 2 {
		t.Fatalf("header = %+v", hdr)
	}
	var first snapshotTenant
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != "a" || !first.HasState {
		t.Fatalf("first tenant line = %+v (want sorted, with state)", first)
	}
	s.Close()
}

// TestRestoreAcceptsOlderSnapshotShapes pins snapshot compatibility with
// older writers. A checkpoint cut just before a memo-hit decision is
// rewritten into (a) the older v2 writer's shape, whose core.Decision
// also carried "Current"/"Target" resource vectors beside the CPU
// scalars, and (b) the v1 shape (version 1 header, no vector keys). Both
// must restore into a server whose explained decision stream is
// byte-identical to an uninterrupted control's, and whose first
// post-restore decision is answered from the restored memo.
func TestRestoreAcceptsOlderSnapshotShapes(t *testing.T) {
	usage := rampUsage(60)
	for i := 0; i < 180; i++ {
		usage = append(usage, 3)
	}
	const cut = 150 // the window is flat and the allocation settled
	tenants := []struct{ id, cfg string }{
		{"re", `{"policy":"caasper","max_cores":10,"initial_cores":5}`},
		{"pro", `{"policy":"caasper-proactive","max_cores":10,"initial_cores":5}`},
	}

	_, ctl := testServer(t, Options{DecisionEveryMinutes: 10})
	for _, tn := range tenants {
		register(t, ctl.URL, tn.id, tn.cfg)
		postSamples(t, ctl.URL, tn.id, usage)
		waitSamples(t, ctl.URL, tn.id, len(usage))
	}

	snap := filepath.Join(t.TempDir(), "serve.snapshot")
	s1, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestFrontend(t, s1)
	for _, tn := range tenants {
		register(t, ts1, tn.id, tn.cfg)
		postSamples(t, ts1, tn.id, usage[:cut])
		waitSamples(t, ts1, tn.id, cut)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"Current"`) || strings.Contains(string(raw), `"Target"`) {
		t.Fatal("snapshot writer emitted resource-vector keys")
	}

	for _, tc := range []struct {
		name    string
		rewrite func(hdr string, tenant map[string]any) string
	}{
		{"v2 with vector keys", func(hdr string, tenant map[string]any) string {
			state := tenant["state"].(map[string]any)
			memo := state["memo"].(map[string]any)
			for _, d := range []any{memo["Decision"], state["last_decision"]} {
				d := d.(map[string]any)
				d["Current"] = map[string]any{"CPUCores": d["CurrentCores"], "RAMGB": 0, "DiskGB": 0, "Replicas": 0}
				d["Target"] = map[string]any{"CPUCores": d["TargetCores"], "RAMGB": 0, "DiskGB": 0, "Replicas": 0}
			}
			return hdr
		}},
		{"v1", func(hdr string, _ map[string]any) string {
			return strings.Replace(hdr, `"version":2`, `"version":1`, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			for i := 1; i < len(lines); i++ {
				dec := json.NewDecoder(strings.NewReader(lines[i]))
				dec.UseNumber() // re-encode every number with its original digits
				var tenant map[string]any
				if err := dec.Decode(&tenant); err != nil {
					t.Fatal(err)
				}
				lines[0] = tc.rewrite(lines[0], tenant)
				b, err := json.Marshal(tenant)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = string(b)
			}
			path := filepath.Join(t.TempDir(), "serve.snapshot")
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}

			sink := obs.NewMemorySink()
			s2, err := New(Options{DecisionEveryMinutes: 10, SnapshotPath: path, Events: sink})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := newTestFrontend(t, s2)
			defer s2.Close()
			for _, tn := range tenants {
				postSamples(t, ts2, tn.id, usage[cut:])
				waitSamples(t, ts2, tn.id, len(usage))
			}
			first := ""
			for _, e := range sink.Events() {
				if e.Type == "core.decision" {
					first = string(e.AppendNDJSON(nil))
					break
				}
			}
			if !strings.Contains(first, `"memo":true`) {
				t.Fatalf("first post-restore decision did not hit the restored memo: %q", first)
			}
			for _, tn := range tenants {
				if want, got := decisionsOf(t, ctl.URL, tn.id), decisionsOf(t, ts2, tn.id); want != got {
					t.Errorf("tenant %s: decision stream diverged after restore\ncontrol:\n%s\nrestored:\n%s", tn.id, want, got)
				}
			}
		})
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	for _, tc := range []struct{ name, payload string }{
		{"empty", ""},
		{"wrong format", `{"format":"other","version":1,"tenants":0}`},
		{"wrong version", `{"format":"caasper-serve","version":99,"tenants":0}`},
		{"truncated", `{"format":"caasper-serve","version":1,"tenants":3}`},
		{"garbage tenant", `{"format":"caasper-serve","version":1,"tenants":1}` + "\nnot json"},
	} {
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(strings.NewReader(tc.payload)); err == nil {
			t.Errorf("%s: Restore accepted a bad snapshot", tc.name)
		}
		s.Close()
	}
}

// TestColdStartWithoutSnapshot pins that a missing checkpoint file is a
// cold start, not an error.
func TestColdStartWithoutSnapshot(t *testing.T) {
	s, err := New(Options{SnapshotPath: filepath.Join(t.TempDir(), "nope.snapshot")})
	if err != nil {
		t.Fatalf("missing snapshot must cold-start: %v", err)
	}
	s.Close()
}
