package main

import (
	"errors"
	"fmt"
)

// MetricSpec names one reported metric and what it is for. For per-layer
// metrics, Moves is the end-to-end metric a change to the layer should
// move and Works says on which workloads the layer does work.
type MetricSpec struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"moves,omitempty"`
	Works string `json:"works,omitempty"`
}

// endToEndSpecs are the metrics a --trace 0 run prints, on every workload.
var endToEndSpecs = []MetricSpec{
	{Name: "setup_s", Unit: "s"},           // child start to /healthz 200 (tenant-churn: and its set-up tenants ready); median of setupReps starts
	{Name: "ops_s", Unit: "1/s"},           // ops of the quiet rounds over their wall time
	{Name: "translate_p50_ms", Unit: "ms"}, // client-side translate latency over the quiet rounds
	{Name: "translate_p99_ms", Unit: "ms"},

	{Name: "ok_pct", Unit: "%"},           // 2xx with a well-formed body, over ops attempted
	{Name: "em_pct", Unit: "%"},           // exact_match over translates; repeats exactly
	{Name: "ex_pct", Unit: "%"},           // exec_match over translates; repeats exactly
	{Name: "tokens_per_q", Unit: "count"}, // total_tokens per translate; repeats exactly
	{Name: "peak_rss_mb", Unit: "MB"},     // server VmHWM at the end of the run
	{Name: "ready_p50_ms", Unit: "ms"},    // (re-)register to ready: timed writes in tenant-churn, probe registrations in dev-cold
}

// perLayerSpecs are the metrics a --trace 1 run prints, on every workload;
// a layer idle on a workload reports 0 there.
var perLayerSpecs = []MetricSpec{
	{"service.overhead_ms", "ms", "translate_p50_ms", "all; largest share in tenant-churn"},
	{"core.translate_ms", "ms", "translate_p50_ms, ops_s", "all"},
	{"classifier.prune_ms", "ms", "translate_p50_ms", "dev-cold; small in tenant-churn"},
	{"classifier.tables_kept", "count", "translate_p50_ms", "dev-cold; small in tenant-churn"},
	{"predictor.predict_ms", "ms", "translate_p50_ms", "dev-cold"},
	{"selection.select_ms", "ms", "translate_p50_ms", "dev-cold; small pools in tenant-churn"},
	{"selection.pool", "count", "translate_p50_ms", "dev-cold; small pools in tenant-churn"},
	{"prompt.build_ms", "ms", "translate_p50_ms", "all"},
	{"prompt.demos_used", "count", "tokens_per_q", "all"},
	{"prompt.input_tokens", "count", "tokens_per_q", "all"},
	{"llm.complete_ms", "ms", "ops_s, translate_p50_ms", "dev-cold (every call misses); tenant-churn (cached)"},
	{"llm.cache_hit_pct", "%", "ops_s, translate_p50_ms", "tenant-churn; cache off in dev-cold"},
	{"adaption.vote_ms", "ms", "translate_p50_ms, translate_p99_ms", "all"},
	{"adaption.vote_ok_pct", "%", "em_pct, ex_pct", "all"},
	{"sqlexec.plan_lookups_per_q", "count", "translate_p50_ms", "all"},
	{"sqlexec.plan_misses_per_q", "count", "translate_p50_ms", "dev-cold (overflow), tenant-churn (invalidation)"},
	{"sqlexec.plan_hit_pct", "%", "translate_p50_ms", "all"},
	{"eval.match_ms", "ms", "translate_p50_ms", "all"},
	{"catalog.register_ms", "ms", "ready_p50_ms", "tenant-churn; probe registrations in dev-cold"},
	{"catalog.build_ms", "ms", "ready_p50_ms", "tenant-churn; probe registrations in dev-cold"},
	{"catalog.builds_done", "count", "ready_p50_ms", "tenant-churn; idle in dev-cold"},
	{"catalog.builds_stale", "count", "ready_p50_ms", "tenant-churn; idle in dev-cold"},
	{"store.saves_per_write", "count", "ready_p50_ms, peak_rss_mb", "tenant-churn"},
	{"store.kb_saved_per_write", "KB", "ready_p50_ms, peak_rss_mb", "tenant-churn"},
	{"store.wal_syncs_per_write", "count", "ready_p50_ms", "tenant-churn"},
	{"jobs.queue_peak", "count", "ready_p50_ms, ok_pct", "tenant-churn; probe registrations in dev-cold"},
	{"jobs.rejected", "count", "ok_pct", "tenant-churn"},
	{"go.alloc_kb_per_q", "KB", "translate_p99_ms, ops_s, peak_rss_mb", "all"},
	{"go.gc_per_kq", "count", "translate_p99_ms, ops_s", "all"},
	{"trace.overhead_ms", "ms", "none: the traced replay's own cost (traced core.translate minus untraced)", "all"},
}

// checkAgainst verifies that m holds exactly the metrics of specs, with
// their units, valid names and finite values.
func (m Metrics) checkAgainst(specs []MetricSpec) error {
	if err := m.validate(); err != nil {
		return err
	}
	var errs []error
	for _, s := range specs {
		got, ok := m[s.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", s.Name))
		case got.Unit != s.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, want %s", s.Name, got.Unit, s.Unit))
		}
	}
	if len(m) != len(specs) {
		errs = append(errs, fmt.Errorf("%d metrics, want %d", len(m), len(specs)))
	}
	return errors.Join(errs...)
}

// endToEnd derives the end-to-end metrics from the HTTP phase: throughput,
// translate latency and time to ready over the quiet rounds and samples
// (see keepQuiet), the paper's figures over the whole run. The rounds, and
// the translate percentiles pooled over every round, are returned for the
// raw record. Percentiles that lack samples are reported as errors.
func endToEnd(plan *Plan, hp *httpPhase) (Metrics, paperFigures, []Percentile, []Round, error) {
	var lat []float64
	var n, em, ex, tokens float64
	for _, o := range hp.reads {
		if o.Op.Kind != opTranslate || !o.OK {
			continue
		}
		lat = append(lat, float64(o.Latency)/1e6)
		n++
		if o.EM {
			em++
		}
		if o.EX {
			ex++
		}
		tokens += float64(o.Tokens)
	}
	pf := paperFigures{EMPct: 100 * ratio(em, n), EXPct: 100 * ratio(ex, n), TokensPerQ: ratio(tokens, n)}
	p50, err50 := percentile(lat, 50)
	p99, err99 := percentile(lat, 99)
	rounds, quiet, errRounds := measureRounds(hp.reads, hp.writes, hp.roundSteal)
	ready, errReady := readyMedian(plan, hp.ready)
	attempted, failed := hp.counts()

	m := Metrics{}
	m.set("setup_s", median(hp.setupS), "s")
	m.set("ops_s", quiet.OpsS, "1/s")
	m.set("translate_p50_ms", quiet.P50.Value, "ms")
	m.set("translate_p99_ms", quiet.P99.Value, "ms")
	m.set("ok_pct", 100*float64(attempted-failed)/float64(attempted), "%")
	m.set("em_pct", pf.EMPct, "%")
	m.set("ex_pct", pf.EXPct, "%")
	m.set("tokens_per_q", pf.TokensPerQ, "count")
	m.set("peak_rss_mb", hp.rssMB, "MB")
	m.set("ready_p50_ms", ready, "ms")
	return m, pf, []Percentile{p50, p99}, rounds, errors.Join(err50, err99, errRounds, errReady)
}

// paperFigures are the translate outcomes that must repeat exactly.
type paperFigures struct {
	EMPct      float64 `json:"em_pct"`
	EXPct      float64 `json:"ex_pct"`
	TokensPerQ float64 `json:"tokens_per_q"`
}

// readyMedian is the median time to ready of the quiet samples (see
// keepQuiet), which it marks: of the timed writes in tenant-churn (a
// percentile, so at least 20 samples), of the probe registrations in
// dev-cold.
func readyMedian(plan *Plan, ready []Sample) (float64, error) {
	steal := make([]float64, len(ready))
	for i, s := range ready {
		steal[i] = s.StealS
	}
	var ms []float64
	for i, keep := range keepQuiet(steal) {
		ready[i].Kept = keep
		if keep {
			ms = append(ms, ready[i].Ms)
		}
	}
	if len(plan.Writes) > 0 {
		p, err := percentile(ms, 50)
		return p.Value, err
	}
	if len(ms) == 0 {
		return 0, fmt.Errorf("no registration reached ready")
	}
	return median(ms), nil
}

// httpCounterSeries lists the /v1/metrics series a workload's server must
// export; each is diffed around the timed phase.
func httpCounterSeries(w Workload, plan *Plan) []string {
	series := []string{
		`plan_cache_hits_total{cache="shared"}`,
		`plan_cache_misses_total{cache="shared"}`,
		`catalog_builds_done_total`,
		`catalog_builds_stale_total`,
	}
	if !hasFlag(w.ServerFlags, "-cache", "0") {
		series = append(series, `llm_cache_hits_total{cache="llm"}`, `llm_cache_misses_total{cache="llm"}`)
	}
	if w.DataDir {
		series = append(series, `store_saves_total`, `store_bytes_saved_total`, `store_wal_syncs_total`)
	}
	for _, r := range plan.Setup {
		series = append(series, tenantSeries("hits", plan.Regs[r].Name), tenantSeries("misses", plan.Regs[r].Name))
	}
	return series
}

func tenantSeries(kind, tenant string) string {
	return fmt.Sprintf(`tenant_llm_cache_%s_total{tenant=%q}`, kind, tenant)
}

// httpCounters diffs every required series around the timed phase.
func httpCounters(w Workload, plan *Plan, before, after map[string]float64) (Metrics, error) {
	out := Metrics{}
	for _, s := range httpCounterSeries(w, plan) {
		d, err := counterDelta(before, after, s)
		if err != nil {
			return nil, err
		}
		out[s] = Metric{Value: d, Unit: "count"}
	}
	return out, nil
}

// perLayer derives the per-layer metrics from the HTTP counters and the
// in-process replay. The LLM cache figure is the tenants' caches in
// tenant-churn (its reads never touch the dev pipeline's cache) and 0 when
// the cache is off.
func perLayer(plan *Plan, hp *httpPhase, lp *localPhase) Metrics {
	tr := lp.tr
	c := func(s string) float64 { return hp.counters[s].Value }
	nT := float64(TranslateCount(plan.Reads))
	var httpMs []float64
	for _, o := range hp.reads {
		if o.Op.Kind == opTranslate {
			httpMs = append(httpMs, float64(o.Latency)/1e6)
		}
	}
	m := Metrics{}
	m.set("service.overhead_ms", mean(httpMs)-lp.translateMs-tr.meanMs("eval.match"), "ms")
	m.set("core.translate_ms", lp.translateMs, "ms")
	m.set("trace.overhead_ms", tr.meanMs("core.translate")-lp.translateMs, "ms")
	m.set("classifier.prune_ms", tr.meanMs("classifier.prune"), "ms")
	m.set("classifier.tables_kept", tr.perSpan("classifier.tables_kept", "classifier.prune"), "count")
	m.set("predictor.predict_ms", tr.meanMs("predictor.predict"), "ms")
	m.set("selection.select_ms", tr.meanMs("selection.select"), "ms")
	m.set("selection.pool", tr.perSpan("selection.pool", "selection.select"), "count")
	m.set("prompt.build_ms", tr.meanMs("prompt.build"), "ms")
	m.set("prompt.demos_used", tr.perSpan("prompt.demos_used", "prompt.build"), "count")
	m.set("prompt.input_tokens", tr.perSpan("prompt.input_tokens", "prompt.build"), "count")
	m.set("llm.complete_ms", tr.meanMs("llm.complete"), "ms")
	var hits, misses float64
	if len(plan.Setup) > 0 {
		for _, r := range plan.Setup {
			hits += c(tenantSeries("hits", plan.Regs[r].Name))
			misses += c(tenantSeries("misses", plan.Regs[r].Name))
		}
	} else {
		hits, misses = c(`llm_cache_hits_total{cache="llm"}`), c(`llm_cache_misses_total{cache="llm"}`)
	}
	m.set("llm.cache_hit_pct", 100*ratio(hits, hits+misses), "%")
	m.set("adaption.vote_ms", tr.meanMs("adaption.vote"), "ms")
	m.set("adaption.vote_ok_pct", 100*tr.perSpan("adaption.vote_ok", "adaption.vote"), "%")
	ph, pm := c(`plan_cache_hits_total{cache="shared"}`), c(`plan_cache_misses_total{cache="shared"}`)
	m.set("sqlexec.plan_lookups_per_q", ratio(ph+pm, nT), "count")
	m.set("sqlexec.plan_misses_per_q", ratio(pm, nT), "count")
	m.set("sqlexec.plan_hit_pct", 100*ratio(ph, ph+pm), "%")
	m.set("eval.match_ms", tr.meanMs("eval.match"), "ms")
	m.set("catalog.register_ms", tr.meanMs("catalog.register"), "ms")
	m.set("catalog.build_ms", tr.meanMs("catalog.build"), "ms")
	m.set("catalog.builds_done", c("catalog_builds_done_total"), "count")
	m.set("catalog.builds_stale", c("catalog_builds_stale_total"), "count")
	nW := float64(len(plan.Writes))
	m.set("store.saves_per_write", ratio(c("store_saves_total"), nW), "count")
	m.set("store.kb_saved_per_write", ratio(c("store_bytes_saved_total")/1024, nW), "KB")
	m.set("store.wal_syncs_per_write", ratio(c("store_wal_syncs_total"), nW), "count")
	m.set("jobs.queue_peak", float64(lp.queuePeak), "count")
	m.set("jobs.rejected", float64(lp.rejected), "count")
	m.set("go.alloc_kb_per_q", lp.allocKBPerQ, "KB")
	m.set("go.gc_per_kq", lp.gcPerKQ, "count")
	return m
}
