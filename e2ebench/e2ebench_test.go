package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/service"
	"repro/internal/spider"
)

var (
	fullOnce   sync.Once
	fullCorpus *spider.Corpus
)

// full is the corpus the benchmark's server runs on.
func full() *spider.Corpus {
	fullOnce.Do(func() { fullCorpus = spider.GenerateSmall(corpusSeed, corpusScale) })
	return fullCorpus
}

func readKeys(p *Plan) []string {
	var out []string
	for _, o := range p.Reads {
		out = append(out, o.key())
	}
	sort.Strings(out)
	return out
}

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	c := full()
	for _, w := range workloads {
		a, err := NewPlan(w, 7, 2, c)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewPlan(w, 7, 2, c)
		other, _ := NewPlan(w, 8, 2, c)
		ha, _ := a.hash()
		hb, _ := b.hash()
		ho, _ := other.hash()
		if ha != hb {
			t.Errorf("%s: seed 7 drew two different plans", w.Name)
		}
		if ha == ho {
			t.Errorf("%s: seeds 7 and 8 drew the same plan", w.Name)
		}
		// Seeds reorder a fixed mix, so the paper's figures cannot move
		// with the seed.
		if !reflect.DeepEqual(readKeys(a), readKeys(other)) {
			t.Errorf("%s: seeds 7 and 8 send different request mixes", w.Name)
		}
		if TranslateCount(a.Reads) == 0 {
			t.Errorf("%s: no translates", w.Name)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	c := full()
	cold, _ := NewPlan(workloads[0], 1, 15, c)
	if n := len(c.Dev.Examples); len(cold.Reads)%n != 0 || len(cold.Reads) < 2*n {
		t.Errorf("dev-cold: %d reads is not several whole passes over %d tasks", len(cold.Reads), n)
	}
	churn, _ := NewPlan(workloads[1], 1, 15, c)
	stable := map[string]bool{}
	for _, r := range churn.Setup[:stableTenants] {
		stable[churn.Regs[r].Name] = true
	}
	for _, o := range churn.Reads {
		if !stable[o.Tenant] {
			t.Fatalf("tenant-churn read %s goes to a tenant outside the stable set", o.key())
		}
	}
	for _, o := range churn.Writes {
		if stable[o.Tenant] {
			t.Fatalf("tenant-churn write %s touches a stable tenant", o.key())
		}
	}
	// The rounds split the reads evenly, dev-cold's passes and each
	// tenant-churn round send the same mix, and the quiet half of the
	// rounds holds enough translates for a p99.
	n := len(c.Dev.Examples)
	for _, p := range []*Plan{cold, churn} {
		if p.Rounds < 10 || len(p.Reads)%p.Rounds != 0 {
			t.Fatalf("%s: %d reads in %d rounds", p.Workload, len(p.Reads), p.Rounds)
		}
		if nT := TranslateCount(p.Reads); nT < minTimedTranslates {
			t.Errorf("%s: %d translates per run, want %d", p.Workload, nT, minTimedTranslates)
		}
		unit := len(p.Reads) / p.Rounds
		if p == cold {
			unit = n
		}
		first := readKeys(&Plan{Reads: p.Reads[:unit]})
		for lo := unit; lo < len(p.Reads); lo += unit {
			if !reflect.DeepEqual(readKeys(&Plan{Reads: p.Reads[lo : lo+unit]}), first) {
				t.Errorf("%s: reads %d.. send another mix than the first %d", p.Workload, lo, unit)
			}
		}
	}
}

func TestMeasureRounds(t *testing.T) {
	// Four rounds of 500 translates, 1 ms apart; the second and fourth run
	// twice as slow while the host steals, and one write completes in each
	// round.
	var reads []Outcome
	for i := 0; i < 2000; i++ {
		lat := time.Duration(i%500+1) * time.Microsecond
		if r := i / 500; r == 1 || r == 3 {
			lat *= 2
		}
		reads = append(reads, Outcome{Op: Op{Kind: opTranslate}, OK: true, Latency: lat, Done: time.Duration(i+1) * time.Millisecond})
	}
	var writes []Outcome
	for r := 0; r < 4; r++ {
		writes = append(writes, Outcome{Done: time.Duration(500*r+250) * time.Millisecond})
	}
	rounds, quiet, err := measureRounds(reads, writes, []float64{0, 0.2, 0.01, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var kept []bool
	for _, r := range rounds {
		kept = append(kept, r.Kept)
		if r.Ops != 501 || r.Translates != 500 {
			t.Errorf("round %+v", r)
		}
	}
	if !reflect.DeepEqual(kept, []bool{true, false, true, false}) {
		t.Errorf("kept rounds %v, want the two with the least steal", kept)
	}
	if quiet.P99.N != 1000 || quiet.P50.Value != 0.2505 || quiet.P99.Value > 0.5 || quiet.OpsS < 1000 || quiet.OpsS > 1003 {
		t.Errorf("quiet figures %+v", quiet)
	}
	if _, _, err := measureRounds(reads, writes, []float64{0, 0, 0}); err == nil {
		t.Error("2,000 reads split into 3 rounds")
	}
	if _, _, err := measureRounds(reads[:1600], writes, []float64{0, 1, 0, 1}); err == nil {
		t.Error("800 quiet translates gave a p99")
	}
	// Ties at the median are all kept.
	if got := keepQuiet([]float64{0, 0, 0, 0.5}); !reflect.DeepEqual(got, []bool{true, true, true, false}) {
		t.Errorf("keepQuiet = %v", got)
	}
}

// TestReplayMatchesPipeline checks the traced mirror against
// core.Pipeline.Translate byte for byte: every dev task of a small corpus,
// and every demo question of one registered tenant.
func TestReplayMatchesPipeline(t *testing.T) {
	const scale = 0.05
	c := spider.GenerateSmall(1, scale)
	byDB := devByDB(c)
	regs := []service.RegisterRequest{
		registration("t-one", c.Dev.Databases[0], byDB[0]),
		registration("t-two", c.Dev.Databases[1], byDB[1]),
		registration("t-two", c.Dev.Databases[1], byDB[1][:len(byDB[1])/2]),
	}
	cold, _ := workloadByName("dev-cold")
	wd, err := newWorld(cold, c, scale, regs, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.close()
	tr := newTracer()
	m, err := wd.mirrorFor(wd.pipeline, c.Train.Examples, wd.devClient)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range c.Dev.Examples {
		if got, want := m.translate(i, e, tr), wd.pipeline.Translate(e); got != want {
			t.Fatalf("dev task %d: mirror %+v, pipeline %+v", e.ID, got, want)
		}
	}
	if tr.count["core.translate"] != len(c.Dev.Examples) || tr.count["adaption.vote"] != len(c.Dev.Examples) {
		t.Errorf("spans per stage: %v", tr.count)
	}

	if err := wd.registerSetup([]int{0}); err != nil {
		t.Fatal(err)
	}
	ten, ok := wd.cat.Lookup("t-one")
	if !ok {
		t.Fatal("tenant not registered")
	}
	snap := ten.Snapshot()
	if snap.State != catalog.StateReady {
		t.Fatalf("tenant state %s", snap.State)
	}
	tm, err := wd.mirrorFor(snap.Pipeline, snap.Demos, snap.Cache)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range regs[0].Demos {
		e, ok := snap.Oracle(d.NL)
		if !ok {
			t.Fatalf("demo %d does not resolve", i)
		}
		if got, want := tm.translate(i, e, tr), snap.Pipeline.Translate(e); got != want {
			t.Fatalf("tenant demo %d: mirror %+v, pipeline %+v", i, got, want)
		}
	}
	// Traced reads of one tenant beside churn on another, as a
	// tenant-churn replay runs them, agree with untraced reads.
	if err := wd.registerSetup([]int{1}); err != nil {
		t.Fatal(err)
	}
	var reads []Op
	for _, d := range regs[0].Demos[:5] {
		reads = append(reads,
			Op{Kind: opTranslate, TaskID: -1, Tenant: "t-one", Question: d.NL},
			Op{Kind: opExecute, TaskID: -1, Tenant: "t-one", SQL: d.SQL})
	}
	writes := []Op{
		{Kind: opReregister, TaskID: -1, Tenant: "t-two", Reg: 2, Version: 2},
		{Kind: opDelete, TaskID: -1, Tenant: "t-two"},
		{Kind: opRegister, TaskID: -1, Tenant: "t-two", Reg: 1, Version: 1},
	}
	traced, wrote := wd.replay(reads, writes, tr, nil)
	var d time.Duration
	untraced, _ := wd.replay(reads, nil, nil, &d)
	if err := describeMismatch(traced, untraced); err != nil {
		t.Error(err)
	}
	for _, o := range wrote {
		if !o.OK {
			t.Errorf("write %s: %s", o.Op.key(), o.Err)
		}
	}
	if tr.count["catalog.build"] != 2 || d <= 0 {
		t.Errorf("builds traced %d, untraced translate time %v", tr.count["catalog.build"], d)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, err := percentile(xs, 99)
	if err != nil || p.N != 1000 || p.Value < 989 || p.Value > 991 {
		t.Errorf("p99 of 1..1000 = %+v, %v", p, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples has under 10 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples must be refused")
	}
	if p, err := percentile(xs[:20], 50); err != nil || p.N != 20 || p.Value != 10.5 {
		t.Errorf("p50 of 1..20 = %+v, %v", p, err)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]MetricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		if !metricNameRe.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is invalid or repeated", s.Name)
		}
		seen[s.Name] = true
	}

	// The derivations produce exactly the specified metrics.
	hp := &httpPhase{setupS: []float64{1}, ready: []Sample{{Ms: 5}}, roundSteal: []float64{0}, wall: time.Second, rssMB: 100, counters: Metrics{}}
	for i := 0; i < 1000; i++ {
		hp.reads = append(hp.reads, Outcome{Op: Op{Kind: opTranslate}, OK: true, Latency: time.Duration(i+1) * time.Microsecond, Tokens: 10})
	}
	for i := range hp.reads {
		hp.reads[i].Done = time.Duration(i+1) * time.Millisecond
	}
	plan := &Plan{Rounds: 1}
	e2e, _, _, _, err := endToEnd(plan, hp)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2e.checkAgainst(endToEndSpecs); err != nil {
		t.Error(err)
	}
	if err := perLayer(plan, hp, &localPhase{tr: newTracer()}).checkAgainst(perLayerSpecs); err != nil {
		t.Error(err)
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %q, benchmark has %q", got, want)
	}
	for _, c := range []struct {
		file, specs []MetricSpec
	}{{bf.EndToEnd, endToEndSpecs}, {bf.PerLayer, perLayerSpecs}} {
		if len(c.file) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, benchmark reports %d", len(c.file), len(c.specs))
			continue
		}
		for i := range c.file {
			if c.file[i].Name != c.specs[i].Name || c.file[i].Unit != c.specs[i].Unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), benchmark reports %s (%s)",
					i, c.file[i].Name, c.file[i].Unit, c.specs[i].Name, c.specs[i].Unit)
			}
		}
	}
}

func TestServerGuardRails(t *testing.T) {
	for _, w := range workloads {
		if err := checkServerFlags(append(append([]string(nil), baseFlags...), w.ServerFlags...)); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	for _, bad := range [][]string{
		{"-trace-sample", "1"},
		{"-trace-sample=0"},
		{"-llm-fault"},
		{"-llm-fault-latency", "5ms"},
	} {
		if checkServerFlags(append(append([]string(nil), baseFlags...), bad...)) == nil {
			t.Errorf("flags %v were accepted", bad)
		}
	}
}

func TestCheckRepeatFailsOnChangedOutputs(t *testing.T) {
	dir := t.TempDir()
	rec := &Record{Workload: "dev-cold", Seed: 1, PlanSHA256: "p", Digest: "d1",
		Paper: paperFigures{EMPct: 70, EXPct: 80, TokensPerQ: 3500}, Context: Context{ServerSHA256: "s"}}
	if err := checkRepeat(dir, rec); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkRepeat(dir, rec); err != nil {
		t.Fatalf("identical repeat: %v", err)
	}
	changed := *rec
	changed.Paper.TokensPerQ = 3501
	if checkRepeat(dir, &changed) == nil {
		t.Error("a repeat with other tokens_per_q passed")
	}
	changed = *rec
	changed.Digest = "d2"
	if checkRepeat(dir, &changed) == nil {
		t.Error("a repeat with another digest passed")
	}
	changed.Context.ServerSHA256 = "other binary"
	if err := checkRepeat(dir, &changed); err != nil {
		t.Errorf("another server binary starts its own record: %v", err)
	}
}
