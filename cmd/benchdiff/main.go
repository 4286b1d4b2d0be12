// Command benchdiff is the CI performance-regression gate: it compares a
// freshly produced BENCH_*.json document against a committed baseline and
// fails (exit 1) when any shared benchmark regressed more than the threshold
// in ns/op. The seeded BENCH_executor.json / BENCH_catalog.json baselines
// were uploaded-but-never-checked artifacts before this gate existed; with
// it, a slowdown in the translate/execute hot path fails the build instead
// of landing silently.
//
// Usage:
//
//	benchdiff -baseline BENCH_executor.json -current /tmp/new.json
//	benchdiff -baseline BENCH_executor.json -current run1.json,run2.json,run3.json
//	benchdiff -baseline ... -current ... -threshold 0.30 -allow exec_group_by,prepared_reexec_ts
//	benchdiff -baseline ... -current ... -min-ns 500 -max-allocs-growth 0.10
//
// Semantics:
//
//   - -current takes one document or a comma-separated list of runs of the
//     same set. Each benchmark is then gated on its median ns/op and median
//     allocs/op over the runs that measured it, so one run slowed by a
//     noisy host cannot fail the gate on its own. A single document is
//     gated as it stands.
//   - A benchmark present in both documents with current ns/op more than
//     (1+threshold)× the baseline is a regression — unless it is named in
//     -allow (the escape hatch for intentional changes; note WHY in the PR).
//   - Benchmarks below -min-ns baseline ns/op are compared but never fail
//     the gate: at nanosecond scale, scheduler and frequency jitter swamp a
//     relative threshold.
//   - -max-allocs-growth > 0 additionally gates allocs/op, which is machine-
//     independent and so can be held much tighter than time.
//   - Benchmarks only in the baseline are reported as "not measured" (the
//     -short artifact legitimately skips the corpus-building benchmarks);
//     benchmarks only in the current document are reported as "new". Neither
//     fails the gate.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline BENCH_*.json (required)")
		currentPath  = flag.String("current", "", "freshly produced BENCH_*.json, or a comma-separated list of runs gated on their medians (required)")
		threshold    = flag.Float64("threshold", 0.30, "maximum tolerated ns/op growth as a fraction (0.30 = +30%)")
		allowList    = flag.String("allow", "", "comma-separated benchmark names exempt from the gate (intentional changes)")
		minNs        = flag.Float64("min-ns", 500, "skip gating benchmarks whose baseline ns/op is below this floor (jitter guard); they are still reported")
		allocsGrowth = flag.Float64("max-allocs-growth", 0, "when > 0, also fail on allocs/op growth beyond this fraction")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := benchfmt.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var runs []*benchfmt.Report
	for _, path := range strings.Split(*currentPath, ",") {
		run, err := benchfmt.ReadFile(strings.TrimSpace(path))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		runs = append(runs, run)
	}
	cur := Median(runs)
	allow := map[string]bool{}
	for _, name := range strings.Split(*allowList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			allow[name] = true
		}
	}

	deltas := Compare(base, cur, Gate{
		Threshold:       *threshold,
		MinNs:           *minNs,
		MaxAllocsGrowth: *allocsGrowth,
		Allow:           allow,
	})
	failed := 0
	fmt.Printf("%-34s %14s %14s %9s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "verdict")
	for _, d := range deltas {
		fmt.Printf("%-34s %14s %14s %9s  %s\n", d.Name, fmtNs(d.BaseNs), fmtNs(d.CurNs), fmtPct(d.Pct), d.Verdict)
		if d.Failed {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d benchmark(s) regressed beyond the %.0f%% gate (see table); "+
			"if intentional, pass -allow and justify it in the PR\n", failed, *threshold*100)
		os.Exit(1)
	}
	over := ""
	if len(runs) > 1 {
		over = fmt.Sprintf(", medians of %d runs", len(runs))
	}
	fmt.Printf("\nbenchdiff: ok (%d compared%s, gate %.0f%%)\n", len(deltas), over, *threshold*100)
}

// Median folds runs of one benchmark set into a single report. Each
// benchmark carries the median of every measured field over the runs that
// measured it (the mean of the middle two for an even count), in order of
// first appearance. One run comes back unchanged.
func Median(runs []*benchfmt.Report) *benchfmt.Report {
	if len(runs) == 1 {
		return runs[0]
	}
	out := &benchfmt.Report{Header: runs[0].Header, Short: runs[0].Short}
	byName := map[string][]benchfmt.Result{}
	for _, run := range runs {
		for _, b := range run.Benchmarks {
			if _, ok := byName[b.Name]; !ok {
				out.Benchmarks = append(out.Benchmarks, benchfmt.Result{Name: b.Name})
			}
			byName[b.Name] = append(byName[b.Name], b)
		}
	}
	for i := range out.Benchmarks {
		rs := byName[out.Benchmarks[i].Name]
		field := func(get func(benchfmt.Result) float64) float64 {
			vs := make([]float64, len(rs))
			for j, r := range rs {
				vs[j] = get(r)
			}
			sort.Float64s(vs)
			return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
		out.Benchmarks[i].Iterations = int(field(func(r benchfmt.Result) float64 { return float64(r.Iterations) }))
		out.Benchmarks[i].NsPerOp = field(func(r benchfmt.Result) float64 { return r.NsPerOp })
		out.Benchmarks[i].AllocsPerOp = int64(math.Round(field(func(r benchfmt.Result) float64 { return float64(r.AllocsPerOp) })))
		out.Benchmarks[i].BytesPerOp = int64(math.Round(field(func(r benchfmt.Result) float64 { return float64(r.BytesPerOp) })))
	}
	return out
}

func fmtNs(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtPct(p float64) string {
	if p == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", p*100)
}

// Gate is the comparison policy.
type Gate struct {
	// Threshold is the tolerated fractional ns/op growth (0.30 = +30%).
	Threshold float64
	// MinNs exempts benchmarks whose baseline ns/op is below the floor.
	MinNs float64
	// MaxAllocsGrowth, when > 0, additionally gates allocs/op growth.
	MaxAllocsGrowth float64
	// Allow names benchmarks exempt from failing (still reported).
	Allow map[string]bool
}

// Delta is one benchmark's comparison row.
type Delta struct {
	Name   string
	BaseNs float64
	CurNs  float64
	// Pct is the fractional ns/op change (0 when not comparable).
	Pct float64
	// Verdict is the human-readable outcome; Failed marks gate failures.
	Verdict string
	Failed  bool
}

// Compare evaluates cur against base under the gate, returning one row per
// benchmark named in either document, in baseline-then-new order.
func Compare(base, cur *benchfmt.Report, g Gate) []Delta {
	var out []Delta
	for _, b := range base.Benchmarks {
		c, ok := cur.Find(b.Name)
		if !ok {
			out = append(out, Delta{Name: b.Name, BaseNs: b.NsPerOp, Verdict: "not measured (skipped in current run)"})
			continue
		}
		d := Delta{Name: b.Name, BaseNs: b.NsPerOp, CurNs: c.NsPerOp, Pct: c.NsPerOp/b.NsPerOp - 1}
		switch {
		case g.Allow[b.Name]:
			d.Verdict = "allowed (exempt)"
		case b.NsPerOp < g.MinNs:
			d.Verdict = fmt.Sprintf("below %.0fns floor, not gated", g.MinNs)
		// Gate on the product form, not the ratio: 13000/10000-1 rounds to
		// just above 0.30 in float64, and an exactly-on-the-line delta must
		// pass so baseline refreshes don't flap.
		case c.NsPerOp > b.NsPerOp*(1+g.Threshold):
			d.Verdict = "REGRESSION"
			d.Failed = true
		default:
			d.Verdict = "ok"
		}
		// The allocs gate is independent of the ns jitter floor: allocs/op is
		// deterministic, so even a sub-MinNs benchmark (the lock-free lookup
		// hot path) is held to it. A zero-alloc baseline is a contract — any
		// growth from 0 fails.
		if !d.Failed && !g.Allow[b.Name] && g.MaxAllocsGrowth > 0 {
			switch {
			case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
				d.Verdict = fmt.Sprintf("ALLOCS REGRESSION (0 -> %d allocs/op)", c.AllocsPerOp)
				d.Failed = true
			case b.AllocsPerOp > 0 && float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1 > g.MaxAllocsGrowth:
				d.Verdict = fmt.Sprintf("ALLOCS REGRESSION (%+.1f%% allocs/op)",
					(float64(c.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100)
				d.Failed = true
			}
		}
		out = append(out, d)
	}
	for _, c := range cur.Benchmarks {
		if _, ok := base.Find(c.Name); !ok {
			out = append(out, Delta{Name: c.Name, CurNs: c.NsPerOp, Verdict: "new (no baseline)"})
		}
	}
	return out
}
