package faults

import "testing"

// FuzzParseSpec checks the fault-spec grammar on arbitrary input: parsing
// never panics, every accepted spec holds in-range finite parameters, and
// its canonical String form parses back to the same String. The seed
// corpus is testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil || spec.Empty() {
			return
		}
		for _, k := range []Kind{RestartFail, RestartStuck, MetricsGap, SchedPressure, MemPressure} {
			fl, ok := spec.Get(k)
			if !ok {
				continue
			}
			if !(fl.P >= 0 && fl.P <= 1) {
				t.Errorf("%q: %s has p=%v outside [0,1]", s, k, fl.P)
			}
			if fl.Dur < 1 && (k == RestartStuck || k == SchedPressure || k == MemPressure) {
				t.Errorf("%q: %s has dur=%d", s, k, fl.Dur)
			}
			// Cores and GB are finite and positive, or still 0 on a
			// kind that ignores them.
			if !positive(fl.Cores) && (k == SchedPressure || fl.Cores != 0) {
				t.Errorf("%q: %s has cores=%v", s, k, fl.Cores)
			}
			if !positive(fl.GB) && (k == MemPressure || fl.GB != 0) {
				t.Errorf("%q: %s has gb=%v", s, k, fl.GB)
			}
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not parse: %v", s, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("%q: round trip drifted: %q -> %q", s, canon, got)
		}
	})
}
