package core

import (
	"errors"
	"testing"

	"caasper/internal/errs"
)

func TestLimitsClampManagedAndUnmanaged(t *testing.T) {
	l := Limits{Min: Resources{CPUCores: 2, RAMGB: 4}, Max: Resources{CPUCores: 8, RAMGB: 16}}
	got := l.Clamp(Resources{CPUCores: 12, RAMGB: 1, DiskGB: 999, Replicas: 7})
	want := Resources{CPUCores: 8, RAMGB: 4, DiskGB: 999, Replicas: 7}
	if got != want {
		t.Fatalf("Clamp = %+v, want %+v", got, want)
	}
	// A fully-unmanaged Limits is the identity — the CPU-only contract.
	var id Limits
	in := Resources{CPUCores: 5, RAMGB: 3}
	if out := id.Clamp(in); out != in {
		t.Fatalf("zero Limits.Clamp = %+v, want identity %+v", out, in)
	}
}

func TestLimitsMulti(t *testing.T) {
	if (Limits{Max: Resources{CPUCores: 8}}).Multi() {
		t.Fatal("CPU-only limits must not report Multi")
	}
	for _, l := range []Limits{
		{Max: Resources{RAMGB: 16}},
		{Max: Resources{DiskGB: 100}},
		{Max: Resources{Replicas: 4}},
	} {
		if !l.Multi() {
			t.Fatalf("limits %+v should report Multi", l)
		}
	}
}

func TestResourceRangeResolve(t *testing.T) {
	rr := ResourceRange{
		Initial: Resources{CPUCores: 3},
		Limits:  Limits{Min: Resources{CPUCores: 1}, Max: Resources{CPUCores: 4, RAMGB: 16}},
	}
	got := rr.Resolve()
	if got.Initial.CPUCores != 3 || got.Min.CPUCores != 1 || got.Max.CPUCores != 4 {
		t.Fatalf("set CPU entries must pass through: %+v", got)
	}
	if got.Min.RAMGB != 1 || got.Initial.RAMGB != 1 {
		t.Fatalf("managed RAM should default min/initial to 1: %+v", got)
	}
	// A zero Initial starts at Min.
	rr.Initial.CPUCores = 0
	rr.Min.CPUCores = 2
	if got = rr.Resolve(); got.Initial.CPUCores != 2 {
		t.Fatalf("zero initial CPU should default to Min: %+v", got)
	}
	// An all-zero CPU range stays zero (callers reject it).
	if got = (ResourceRange{}).Resolve(); got != (ResourceRange{}) {
		t.Fatalf("empty range must stay empty: %+v", got)
	}
}

func TestResourceRangeValidate(t *testing.T) {
	ok := ResourceRange{
		Initial: Resources{CPUCores: 2, RAMGB: 4},
		Limits:  Limits{Min: Resources{CPUCores: 1, RAMGB: 4}, Max: Resources{CPUCores: 8, RAMGB: 16}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
	bad := []ResourceRange{
		{Limits: Limits{Min: Resources{RAMGB: 20}, Max: Resources{RAMGB: 16}}},
		{Initial: Resources{DiskGB: 200}, Limits: Limits{Max: Resources{DiskGB: 100}}},
		{Initial: Resources{CPUCores: 1}, Limits: Limits{Min: Resources{CPUCores: 2}, Max: Resources{CPUCores: 4}}},
	}
	for i, rr := range bad {
		if err := rr.Validate(); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Fatalf("case %d: want ErrInvalidConfig, got %v", i, err)
		}
	}
}

func TestParseResourceSpec(t *testing.T) {
	rr, err := ParseResourceSpec("ram=4-16,disk=20-100,replicas=1-4")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Min.RAMGB != 4 || rr.Max.RAMGB != 16 || rr.Initial.RAMGB != 4 {
		t.Fatalf("ram range wrong: %+v", rr)
	}
	if rr.Max.DiskGB != 100 || rr.Initial.DiskGB != 20 {
		t.Fatalf("disk range wrong: %+v", rr)
	}
	if rr.Min.Replicas != 1 || rr.Max.Replicas != 4 {
		t.Fatalf("replicas range wrong: %+v", rr)
	}
	if rr.Max.CPUCores != 0 {
		t.Fatalf("cpu must stay unmanaged: %+v", rr)
	}
	// Fixed-value clause.
	rr, err = ParseResourceSpec("disk=50")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Min.DiskGB != 50 || rr.Max.DiskGB != 50 {
		t.Fatalf("fixed disk wrong: %+v", rr)
	}
	for _, s := range []string{"", "ram", "ram=0-4", "ram=8-4", "gpu=1-2", "ram=1-2,ram=2-4"} {
		if _, err := ParseResourceSpec(s); !errors.Is(err, errs.ErrInvalidConfig) {
			t.Fatalf("spec %q: want ErrInvalidConfig, got %v", s, err)
		}
	}
}
