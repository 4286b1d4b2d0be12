package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// httpPhase is what the HTTP half of a run measured.
type httpPhase struct {
	setupS []float64
	// ready holds the time to ready of each timed write (tenant-churn) or
	// probe registration (dev-cold), with the steal during it.
	ready []Sample
	reads []Outcome
	// roundSteal is the steal time during each measurement round.
	roundSteal []float64
	writes     []Outcome
	wall       time.Duration
	rssMB      float64
	// cpuS and stealS are the server's CPU time and the machine's steal
	// time over the timed phase, kept in the raw record to explain noise.
	cpuS, stealS float64
	counters     Metrics
}

// counts reports the timed ops attempted and how many of them failed.
func (hp *httpPhase) counts() (attempted, failed int) {
	for _, list := range [][]Outcome{hp.reads, hp.writes} {
		for _, o := range list {
			attempted++
			if !o.OK {
				failed++
			}
		}
	}
	return attempted, failed
}

// runHTTP starts the server reps times to time set-up, then, against the
// last server started, sends the warm-up pass and drives the timed lists:
// reads on one connection, writes on a second, with /v1/metrics scraped on
// either side. The dev-cold probe registrations come before the warm-up and
// after the timed phase.
func runHTTP(ctx context.Context, cfg config, flags []string, plan *Plan, warm []Op, reps int, scratch string) (*httpPhase, error) {
	hp := &httpPhase{}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < reps; i++ {
		f := flags
		if cfg.w.DataDir {
			// A fresh directory per start: no run replays another's WAL.
			dir := filepath.Join(scratch, fmt.Sprintf("data-%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			f = append(append([]string(nil), flags...), "-data-dir", dir)
		}
		s, d, err := startServer(ctx, cfg.bin, f)
		if err != nil {
			return nil, err
		}
		srv = s
		if len(plan.Setup) > 0 {
			c := newClient(s.base)
			err := registerAll(ctx, c, plan, plan.Setup)
			c.close()
			if err != nil {
				return nil, fmt.Errorf("set-up registrations: %w", err)
			}
			d = time.Since(s.start)
		}
		hp.setupS = append(hp.setupS, d.Seconds())
		if i < reps-1 {
			srv.stop()
			srv = nil
		}
	}
	reader := newClient(srv.base)
	defer reader.close()
	// Half the probes run before the warm-up and half after the timed
	// phase, paced, so the time to ready is sampled across the run.
	half := len(plan.Probes) / 2
	if err := hp.probe(ctx, reader, plan, plan.Probes[:half]); err != nil {
		return nil, err
	}
	for _, o := range warm {
		if out := reader.doRead(ctx, o); !out.OK {
			return nil, fmt.Errorf("warm-up %s: %s", o.key(), out.Err)
		}
	}
	before, err := scrape(ctx, reader)
	if err != nil {
		return nil, err
	}
	if plan.Rounds < 1 || len(plan.Reads)%plan.Rounds != 0 {
		return nil, fmt.Errorf("%d timed reads do not split into %d equal rounds", len(plan.Reads), plan.Rounds)
	}
	writer := newClient(srv.base)
	defer writer.close()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	steal0, err := stealTicks()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	if len(plan.Writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hp.writes = writeLoop(plan.Writes, func(_ int, o Op) Outcome {
				out := writer.doWrite(ctx, o, plan.Regs)
				out.Done = time.Since(start)
				return out
			})
		}()
	}
	size, prevSteal := len(plan.Reads)/plan.Rounds, steal0
	var stealErr error
	for i, o := range plan.Reads {
		out := reader.doRead(ctx, o)
		out.Done = time.Since(start)
		hp.reads = append(hp.reads, out)
		if (i+1)%size == 0 {
			s, err := stealTicks()
			stealErr = errors.Join(stealErr, err)
			hp.roundSteal = append(hp.roundSteal, ticksToS(s-prevSteal))
			prevSteal = s
		}
	}
	wg.Wait()
	if stealErr != nil {
		return nil, stealErr
	}
	hp.wall = time.Since(start)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	steal1, err := stealTicks()
	if err != nil {
		return nil, err
	}
	hp.cpuS, hp.stealS = cpu1-cpu0, ticksToS(steal1-steal0)
	after, err := scrape(ctx, reader)
	if err != nil {
		return nil, err
	}
	for _, o := range hp.writes {
		if o.Op.Kind != opDelete && o.OK {
			hp.ready = append(hp.ready, Sample{Ms: float64(o.Ready) / 1e6, StealS: o.Steal})
		}
	}
	if hp.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := hp.probe(ctx, reader, plan, plan.Probes[half:]); err != nil {
		return nil, err
	}
	if hp.counters, err = httpCounters(cfg.w, plan, before, after); err != nil {
		return nil, err
	}
	return hp, nil
}

// probePause spaces the probe registrations out in time.
const probePause = 20 * time.Millisecond

// probe registers each of the given probe tenants, times it to ready, and
// deletes it again.
func (hp *httpPhase) probe(ctx context.Context, c *client, plan *Plan, probes []int) error {
	for _, r := range probes {
		name := plan.Regs[r].Name
		o := c.doWrite(ctx, Op{Kind: opRegister, TaskID: -1, Tenant: name, Reg: r, Version: 1}, plan.Regs)
		if !o.OK {
			return fmt.Errorf("probe registration: %s", o.Err)
		}
		hp.ready = append(hp.ready, Sample{Ms: float64(o.Ready) / 1e6, StealS: o.Steal})
		if o := c.doWrite(ctx, Op{Kind: opDelete, TaskID: -1, Tenant: name}, plan.Regs); !o.OK {
			return fmt.Errorf("probe deletion: %s", o.Err)
		}
		time.Sleep(probePause)
	}
	return nil
}

// registerAll registers the given plan registrations at once and waits
// until all are ready.
func registerAll(ctx context.Context, c *client, plan *Plan, regs []int) error {
	for _, r := range regs {
		data, status, err := c.raw(ctx, http.MethodPost, "/v1/databases", plan.Regs[r])
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering %s: HTTP %d: %s", plan.Regs[r].Name, status, data)
		}
	}
	for _, r := range regs {
		if _, err := c.awaitReady(ctx, plan.Regs[r].Name, 1); err != nil {
			return err
		}
	}
	return nil
}

// Round is one measurement round of the timed reads.
type Round struct {
	// Ops counts the reads of the round plus the writes that completed
	// within it; Seconds is the round's wall time.
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	// StealS is the machine's steal time during the round; Kept says
	// whether the round counts towards the reported figures.
	StealS     float64 `json:"steal_s"`
	Translates int     `json:"translates"`
	Kept       bool    `json:"kept"`
}

// Sample is one timed event outside the rounds (a time to ready) with the
// steal during it.
type Sample struct {
	Ms     float64 `json:"ms"`
	StealS float64 `json:"steal_s"`
	Kept   bool    `json:"kept"`
}

// Quiet figures. The host is shared: when the hypervisor runs another
// machine on this one's CPUs (steal time), every request slows down and the
// tail doubles, however long the run. So each timed figure is taken over
// the rounds, or samples, in which the host stole no more than it did in
// the median one, at least half of each run. Steal is external to the
// program, so the choice cannot favour one build of it over another.

// keepQuiet marks the entries of steal that are at most their median.
func keepQuiet(steal []float64) []bool {
	m := median(steal)
	keep := make([]bool, len(steal))
	for i, s := range steal {
		keep[i] = s <= m
	}
	return keep
}

// quietFigures are the throughput and translate latency of the kept
// rounds.
type quietFigures struct {
	OpsS     float64
	P50, P99 Percentile
}

// measureRounds splits the timed reads into len(steal) consecutive rounds
// of equal length, keeps the quiet ones, and measures throughput and the
// translate latency percentiles over the kept rounds together. Percentiles
// that lack samples are errors.
func measureRounds(reads, writes []Outcome, steal []float64) ([]Round, quietFigures, error) {
	n := len(steal)
	if n < 1 || len(reads)%n != 0 {
		return nil, quietFigures{}, fmt.Errorf("%d timed reads do not split into %d equal rounds", len(reads), n)
	}
	keep := keepQuiet(steal)
	var (
		rounds []Round
		lat    []float64
		ops    int
		secs   float64
	)
	size := len(reads) / n
	prev := time.Duration(0)
	for i := 0; i < n; i++ {
		block := reads[i*size : (i+1)*size]
		end := block[len(block)-1].Done
		r := Round{Ops: len(block), Seconds: (end - prev).Seconds(), StealS: steal[i], Kept: keep[i]}
		for _, o := range writes {
			if o.Done > prev && o.Done <= end {
				r.Ops++
			}
		}
		for _, o := range block {
			if o.Op.Kind == opTranslate && o.OK {
				r.Translates++
				if r.Kept {
					lat = append(lat, float64(o.Latency)/1e6)
				}
			}
		}
		if r.Kept {
			ops += r.Ops
			secs += r.Seconds
		}
		rounds = append(rounds, r)
		prev = end
	}
	f := quietFigures{OpsS: float64(ops) / secs}
	var err50, err99 error
	f.P50, err50 = percentile(lat, 50)
	f.P99, err99 = percentile(lat, 99)
	return rounds, f, errors.Join(err50, err99)
}
