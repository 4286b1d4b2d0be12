package main

import (
	"testing"

	"repro/internal/benchfmt"
)

func report(benches ...benchfmt.Result) *benchfmt.Report {
	return &benchfmt.Report{Benchmarks: benches}
}

func res(name string, ns float64, allocs int64) benchfmt.Result {
	return benchfmt.Result{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func find(t *testing.T, deltas []Delta, name string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no delta for %s", name)
	return Delta{}
}

func TestCompareGate(t *testing.T) {
	base := report(
		res("fast_ok", 10000, 5),        // +20% — under the gate
		res("slow_regressed", 10000, 5), // +50% — over the gate
		res("tiny_jitter", 80, 0),       // +200% but under the min-ns floor
		res("allowed_regressed", 10000, 5),
		res("skipped_in_current", 10000, 5),
	)
	cur := report(
		res("fast_ok", 12000, 5),
		res("slow_regressed", 15000, 5),
		res("tiny_jitter", 240, 0),
		res("allowed_regressed", 99999, 5),
		res("brand_new", 5000, 5),
	)
	deltas := Compare(base, cur, Gate{
		Threshold: 0.30,
		MinNs:     500,
		Allow:     map[string]bool{"allowed_regressed": true},
	})

	if d := find(t, deltas, "fast_ok"); d.Failed || d.Verdict != "ok" {
		t.Errorf("fast_ok: %+v", d)
	}
	if d := find(t, deltas, "slow_regressed"); !d.Failed || d.Verdict != "REGRESSION" {
		t.Errorf("slow_regressed must fail: %+v", d)
	}
	if d := find(t, deltas, "tiny_jitter"); d.Failed {
		t.Errorf("tiny_jitter is under the floor, must not fail: %+v", d)
	}
	if d := find(t, deltas, "allowed_regressed"); d.Failed {
		t.Errorf("allowlisted benchmark must not fail: %+v", d)
	}
	if d := find(t, deltas, "skipped_in_current"); d.Failed || d.CurNs != 0 {
		t.Errorf("benchmark missing from current must not fail: %+v", d)
	}
	if d := find(t, deltas, "brand_new"); d.Failed || d.BaseNs != 0 {
		t.Errorf("new benchmark must not fail: %+v", d)
	}
}

func TestCompareExactThresholdPasses(t *testing.T) {
	// Exactly +30% is NOT a regression: the gate is strictly greater-than,
	// so a baseline refresh landing right on the line doesn't flap.
	deltas := Compare(report(res("b", 10000, 1)), report(res("b", 13000, 1)),
		Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed {
		t.Errorf("exact-threshold delta must pass: %+v", d)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	deltas := Compare(report(res("b", 10000, 1)), report(res("b", 2000, 1)),
		Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed || d.Pct > -0.7 {
		t.Errorf("improvement must pass with negative delta: %+v", d)
	}
}

func TestCompareAllocsGate(t *testing.T) {
	base := report(res("b", 10000, 100))
	cur := report(res("b", 10100, 150)) // time fine, allocs +50%
	deltas := Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "b"); !d.Failed {
		t.Errorf("allocs growth beyond the gate must fail: %+v", d)
	}
	// Without the allocs gate the same documents pass.
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500})
	if d := find(t, deltas, "b"); d.Failed {
		t.Errorf("allocs must not be gated when disabled: %+v", d)
	}
}

func TestCompareAllocsGateZeroBaseline(t *testing.T) {
	// A zero-alloc baseline is a contract (the lock-free lookup hot path):
	// any growth from 0 fails, even when the benchmark sits under the ns
	// jitter floor — allocs/op is machine-independent, so the floor does not
	// apply to it.
	base := report(res("lookup", 80, 0))
	cur := report(res("lookup", 85, 3))
	deltas := Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "lookup"); !d.Failed {
		t.Errorf("0 -> 3 allocs/op must fail regardless of the ns floor: %+v", d)
	}
	// Still zero allocs: the sub-floor time jitter alone must not fail.
	cur = report(res("lookup", 160, 0))
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10})
	if d := find(t, deltas, "lookup"); d.Failed {
		t.Errorf("sub-floor zero-alloc benchmark must not fail on time: %+v", d)
	}
	// The allowlist covers the allocs gate too.
	cur = report(res("lookup", 85, 3))
	deltas = Compare(base, cur, Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10,
		Allow: map[string]bool{"lookup": true}})
	if d := find(t, deltas, "lookup"); d.Failed {
		t.Errorf("allowlisted benchmark must not fail the allocs gate: %+v", d)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		name       string
		runs       []*benchfmt.Report
		wantNs     map[string]float64
		wantAllocs map[string]int64
	}{
		{
			name: "odd count takes the middle run",
			runs: []*benchfmt.Report{
				report(res("a", 100, 10)), report(res("a", 300, 30)), report(res("a", 200, 11)),
			},
			wantNs:     map[string]float64{"a": 200},
			wantAllocs: map[string]int64{"a": 11},
		},
		{
			name: "even count averages the middle two",
			runs: []*benchfmt.Report{
				report(res("a", 100, 10)), report(res("a", 1000, 13)),
				report(res("a", 300, 12)), report(res("a", 200, 10)),
			},
			wantNs:     map[string]float64{"a": 250},
			wantAllocs: map[string]int64{"a": 11},
		},
		{
			name: "a benchmark missing from one run uses the runs that measured it",
			runs: []*benchfmt.Report{
				report(res("a", 100, 1), res("b", 900, 9)),
				report(res("a", 120, 1)),
				report(res("a", 110, 1), res("b", 700, 7)),
			},
			wantNs:     map[string]float64{"a": 110, "b": 800},
			wantAllocs: map[string]int64{"a": 1, "b": 8},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := Median(c.runs)
			if len(m.Benchmarks) != len(c.wantNs) {
				t.Fatalf("median has %d benchmarks, want %d: %+v", len(m.Benchmarks), len(c.wantNs), m.Benchmarks)
			}
			for name, ns := range c.wantNs {
				b, ok := m.Find(name)
				if !ok {
					t.Fatalf("median lost %s", name)
				}
				if b.NsPerOp != ns || b.AllocsPerOp != c.wantAllocs[name] {
					t.Errorf("%s: median %v ns/op %d allocs/op, want %v / %d",
						name, b.NsPerOp, b.AllocsPerOp, ns, c.wantAllocs[name])
				}
			}
		})
	}
}

func TestMedianSingleRunUnchanged(t *testing.T) {
	run := report(res("b", 10000, 5), res("a", 123.5, 0))
	if got := Median([]*benchfmt.Report{run}); got != run {
		t.Errorf("a single run must be gated as it stands, got %+v", got)
	}
}

func TestMedianGateIgnoresOneSlowRun(t *testing.T) {
	// One run on a stalled host doubles ns/op; the median of three stays
	// inside the gate, where that run alone would fail it.
	base := report(res("b", 10000, 5))
	runs := []*benchfmt.Report{report(res("b", 10500, 5)), report(res("b", 21000, 5)), report(res("b", 9800, 5))}
	gate := Gate{Threshold: 0.30, MinNs: 500, MaxAllocsGrowth: 0.10}
	if d := find(t, Compare(base, runs[1], gate), "b"); !d.Failed {
		t.Fatalf("the slow run alone must fail: %+v", d)
	}
	if d := find(t, Compare(base, Median(runs), gate), "b"); d.Failed || d.CurNs != 10500 {
		t.Errorf("median of three must pass at 10500 ns/op: %+v", d)
	}
}
