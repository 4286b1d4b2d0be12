package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adaption"
	"repro/internal/automaton"
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/predictor"
	"repro/internal/prompt"
	"repro/internal/selection"
	"repro/internal/spider"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent names the
// enclosing span ("" for the op's root).
type Span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, plus per-name totals and per-name sums of
// counted attributes. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	dur   map[string]time.Duration
	count map[string]int
	sum   map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), dur: map[string]time.Duration{}, count: map[string]int{}, sum: map[string]float64{}}
}

// span records [start, now) under name.
func (t *tracer) span(op int, name, parent string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.dur[name] += end.Sub(start)
	t.count[name]++
	t.mu.Unlock()
}

// add accumulates a counted attribute (tables kept, demos used, ...).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sum[name] += v
	t.mu.Unlock()
}

// meanMs is the mean duration of the spans called name, in milliseconds.
func (t *tracer) meanMs(name string) float64 {
	return ratio(float64(t.dur[name])/1e6, float64(t.count[name]))
}

// perSpan is the attribute sum divided by the number of spans called of.
func (t *tracer) perSpan(attr, of string) float64 {
	return ratio(t.sum[attr], float64(t.count[of]))
}

// mirror re-runs core.Pipeline.TranslateContext stage by stage, calling
// each layer's public function exactly as the pipeline does, so every
// stage can be timed from outside the program. The benchmark's tests and
// every traced run check its SQL against the pipeline's byte for byte.
type mirror struct {
	cfg    core.Config
	client llm.Client
	clf    *classifier.Model
	pred   *predictor.Model
	hier   *automaton.Hierarchy
	demos  []prompt.Demo
	allIdx []int
}

// newMirror mirrors p, which was built by core.New or core.NewWithModels
// from train, client and cfg.
func newMirror(p *core.Pipeline, train []*spider.Example, client llm.Client, cfg core.Config) (*mirror, error) {
	if !cfg.UseSchemaPruning || !cfg.UseSelection || !cfg.UseAdaption || cfg.OracleSkeleton || cfg.TopK <= 0 || cfg.Consistency <= 0 {
		return nil, fmt.Errorf("mirror supports the default pipeline configuration only")
	}
	m := &mirror{cfg: cfg, client: client, clf: p.Classifier(), pred: p.Predictor(), hier: p.Hierarchy()}
	for i, e := range train {
		m.demos = append(m.demos, renderDemo(e))
		m.allIdx = append(m.allIdx, i)
	}
	return m, nil
}

// renderDemo prunes a demonstration's schema to the items its gold SQL
// uses, as the pipeline does when it is built.
func renderDemo(e *spider.Example) prompt.Demo {
	usedT, usedC := classifier.UsedItems(e.Gold, e.DB)
	var keep []string
	keepCols := map[string]map[string]bool{}
	for t := range usedT {
		keep = append(keep, t)
		keepCols[t] = map[string]bool{}
	}
	for tc := range usedC {
		for t := range usedT {
			if len(tc) > len(t) && tc[:len(t)] == t && tc[len(t)] == '.' {
				keepCols[t][tc[len(t)+1:]] = true
			}
		}
	}
	return prompt.Demo{DB: e.DB.Prune(keep, keepCols), NL: e.NL, SQL: e.GoldSQL}
}

// translate is one traced translation: a core.translate root span with one
// child per stage.
func (m *mirror) translate(op int, e *spider.Example, tr *tracer) core.Translation {
	const root = "core.translate"
	rootStart := time.Now()
	rng := rand.New(rand.NewSource(m.cfg.Seed*1_000_003 + int64(e.ID)))

	t := time.Now()
	taskDB := classifier.Prune(m.clf, e.NL, e.DB, classifier.PruneConfig{
		TauP: m.cfg.TauP, TauN: m.cfg.TauN, UseSteiner: m.cfg.UseSteinerTree, TopK1: 4, TopK2: 5,
	}).DB
	tr.span(op, "classifier.prune", root, t)
	tr.add("classifier.tables_kept", float64(len(taskDB.Tables)))

	t = time.Now()
	var preds [][]string
	for _, pr := range m.pred.Predict(e.NL, m.cfg.TopK) {
		preds = append(preds, pr.Tokens)
	}
	tr.span(op, "predictor.predict", root, t)

	t = time.Now()
	order := selection.Select(m.hier, preds, selection.Options{
		Policy: m.cfg.Policy, MaskLevels: m.cfg.MaskLevels, DropProb: m.cfg.DropProb,
		Rng: rng, FillPool: m.allIdx,
	})
	demos := make([]prompt.Demo, 0, len(order))
	for _, i := range order {
		demos = append(demos, m.demos[i])
	}
	tr.span(op, "selection.select", root, t)
	tr.add("selection.pool", float64(len(demos)))

	t = time.Now()
	built := prompt.Build("", demos, taskDB, e.NL, m.cfg.PromptTokens)
	tr.span(op, "prompt.build", root, t)
	tr.add("prompt.demos_used", float64(built.DemosUsed))
	tr.add("prompt.input_tokens", float64(built.InputTokens))

	t = time.Now()
	resp := m.client.Complete(llm.Request{
		Prompt: built.Text, N: m.cfg.Consistency, Task: e, SchemaInPrompt: taskDB,
		Seed: m.cfg.Seed*7_000_003 + int64(e.ID), Ctx: context.Background(),
	})
	tr.span(op, "llm.complete", root, t)

	out := core.Translation{InputTokens: resp.InputTokens, OutputTokens: resp.OutputTokens, DemosUsed: built.DemosUsed}
	t = time.Now()
	sql, ok := adaption.Vote(e.DB, resp.SQLs, true)
	tr.span(op, "adaption.vote", root, t)
	if ok {
		tr.add("adaption.vote_ok", 1)
		out.SQL = sql
	} else if len(resp.SQLs) > 0 {
		out.SQL = resp.SQLs[0]
	}
	tr.span(op, root, "", rootStart)
	return out
}
