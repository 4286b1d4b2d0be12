package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/spider"
)

// localPhase is what the in-process half of a run produced.
type localPhase struct {
	reads, writes []Outcome
	untraced      []Outcome
	tr            *tracer
	translateMs   float64
	allocKBPerQ   float64
	gcPerKQ       float64
	queuePeak     int
	rejected      int
}

// runLocal replays the plan in process, after the server has stopped.
// Without tracing it answers each distinct read once through
// core.Pipeline.TranslateContext, which is enough to check every HTTP
// answer. With tracing it warms up as the HTTP run did, replays the probes
// and the timed lists through the traced mirror and the catalog, then
// replays the reads once more untraced through
// core.Pipeline.TranslateContext.
func runLocal(cfg config, plan *Plan, warm []Op, corpus *spider.Corpus, dataDir string) (*localPhase, error) {
	wd, err := newWorld(cfg.w, corpus, corpusScale, plan.Regs, dataDir, cfg.trace || len(plan.Setup) > 0)
	if err != nil {
		return nil, err
	}
	defer wd.close()
	if err := wd.registerSetup(plan.Setup); err != nil {
		return nil, err
	}
	lp := &localPhase{}
	if !cfg.trace {
		byKey := map[string]Outcome{}
		for _, o := range wd.parallelReads(warm) {
			byKey[o.Op.key()] = o
		}
		for _, o := range plan.Reads {
			lp.reads = append(lp.reads, byKey[o.key()])
		}
		return lp, nil
	}
	var untimed time.Duration
	wd.replay(warm, nil, nil, &untimed)
	lp.tr = newTracer()
	stop := wd.sampleQueue(&lp.queuePeak)
	for i, r := range plan.Probes {
		name := plan.Regs[r].Name
		wd.write(-1-i, Op{Kind: opRegister, TaskID: -1, Tenant: name, Reg: r, Version: 1}, lp.tr)
		wd.write(-1-i, Op{Kind: opDelete, TaskID: -1, Tenant: name}, lp.tr)
	}
	lp.reads, lp.writes = wd.replay(plan.Reads, plan.Writes, lp.tr, nil)
	stop()
	lp.rejected = wd.jobs.Stats().Rejected

	var before, after runtime.MemStats
	var translate time.Duration
	runtime.GC()
	runtime.ReadMemStats(&before)
	lp.untraced, _ = wd.replay(plan.Reads, nil, nil, &translate)
	runtime.ReadMemStats(&after)
	n := float64(len(plan.Reads))
	lp.translateMs = ratio(float64(translate)/1e6, float64(TranslateCount(plan.Reads)))
	lp.allocKBPerQ = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	lp.gcPerKQ = float64(after.NumGC-before.NumGC) * 1000 / n
	return lp, nil
}

// sampleQueue records the deepest build queue seen, sampling every
// millisecond until the returned stop function is called; stop returns
// once the sampler has exited.
func (wd *world) sampleQueue(peak *int) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if d := wd.jobs.Stats().QueueDepth; d > *peak {
				*peak = d
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// parallelReads answers ops untraced on two goroutines, one per core of
// the reference host, returning outcomes in op order.
func (wd *world) parallelReads(ops []Op) []Outcome {
	out := make([]Outcome, len(ops))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var untimed time.Duration
			for i := g; i < len(ops); i += 2 {
				out[i] = wd.read(i, ops[i], nil, &untimed)
			}
		}(g)
	}
	wg.Wait()
	return out
}
