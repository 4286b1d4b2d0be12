// Command e2ebench is the repository's end-to-end benchmark. It starts the
// prebuilt nl2sql-server as a child process, drives one workload's fixed,
// seed-drawn request lists over HTTP in a closed loop, checks every answer
// against the in-process pipeline, and prints one JSON result line:
//
//	go build -o .bench_build/bin/nl2sql-server ./cmd/nl2sql-server
//	go -C e2ebench build -o ../.bench_build/bin/e2ebench .
//	.bench_build/bin/e2ebench --workload dev-cold --seed 1 --seconds 25 --trace 0
//
// e2ebench/run.sh does the two builds and the run in one step. With
// --trace 0 the result holds the end-to-end metrics (endToEndSpecs); with
// --trace 1 the run also replays the same lists in process, timing each
// layer's public functions from the benchmark's own code, and the result
// holds the per-layer metrics (perLayerSpecs). Every run writes a raw
// record (all metrics, run context, digest, sample counts) under
// .bench_build/e2ebench/runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/spider"
)

// Result is the last line of standard output.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// runLimit bounds one whole run, builds excluded.
const runLimit = 170 * time.Second

// setupReps is how many times a --trace 0 run starts the server to time
// set-up; the median is reported.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: dev-cold or tenant-churn")
		seed    = flag.Int64("seed", 1, "seed the request lists are drawn from")
		seconds = flag.Int("seconds", 25, "sizes the request lists: about this many seconds of work on a 2-core host")
		traceOn = flag.Int("trace", 0, "0: end-to-end metrics; 1: also replay in process and report per-layer metrics")
		bin     = flag.String("server", ".bench_build/bin/nl2sql-server", "prebuilt nl2sql-server binary")
		outDir  = flag.String("out", ".bench_build/e2ebench", "directory for raw run records, digests and scratch data")
	)
	flag.Parse()
	// The in-process catalog logs every registration; only warnings matter.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	w, ok := workloadByName(*name)
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload dev-cold|tenant-churn, --trace 0|1 and --seconds >= 1\n")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rec, err := run(ctx, config{w: w, seed: *seed, seconds: *seconds, trace: *traceOn == 1, bin: *bin, outDir: *outDir})
	if rec != nil {
		if werr := rec.write(*outDir); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	}
	if rec == nil || rec.Result == nil {
		os.Exit(1)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

type config struct {
	w       Workload
	seed    int64
	seconds int
	trace   bool
	bin     string
	outDir  string
}

// run performs one benchmark run. It returns a nil record, or one with a
// nil Result, when the run could not measure at all; a Result that is not
// Correct carries no metrics.
func run(ctx context.Context, cfg config) (*Record, error) {
	flags := append(append([]string(nil), baseFlags...), cfg.w.ServerFlags...)
	rctx, err := runContext(cfg.bin, flags)
	if err != nil {
		return nil, err
	}
	rec := &Record{Workload: cfg.w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Context: rctx}
	corpus := spider.GenerateSmall(corpusSeed, corpusScale)
	plan, err := NewPlan(cfg.w, cfg.seed, cfg.seconds, corpus)
	if err != nil {
		return nil, err
	}
	warm := plan.Warmup()
	if rec.PlanSHA256, err = plan.hash(); err != nil {
		return nil, err
	}
	rec.Warmup, rec.Reads, rec.Writes = len(warm), len(plan.Reads), len(plan.Writes)
	scratch := filepath.Join(cfg.outDir, "tmp", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(scratch)

	reps := setupReps
	if cfg.trace {
		reps = 1 // a traced run reports no set-up time
	}
	hp, err := runHTTP(ctx, cfg, flags, plan, warm, reps, scratch)
	if err != nil {
		return rec, err
	}
	rec.progress("HTTP phase: %d reads, %d writes in %.2fs", len(hp.reads), len(hp.writes), hp.wall.Seconds())
	rec.SetupS, rec.Ready, rec.WallS = hp.setupS, hp.ready, hp.wall.Seconds()
	rec.ServerCPUS, rec.StealS = hp.cpuS, hp.stealS
	rec.Digest = digest(hp.reads, hp.writes)
	attempted, failed := hp.counts()
	for _, o := range append(append([]Outcome(nil), hp.reads...), hp.writes...) {
		if !o.OK && len(rec.Failures) < 5 {
			rec.fail("op %s: %s", o.Op.key(), o.Err)
		}
	}
	var pctErr error
	rec.EndToEnd, rec.Paper, rec.Translate, rec.Rounds, pctErr = endToEnd(plan, hp)
	if pctErr != nil {
		rec.fail("%v", pctErr)
	}

	lp, err := runLocal(cfg, plan, warm, corpus, filepath.Join(scratch, "local"))
	if err != nil {
		return rec, err
	}
	rec.progress("in-process phase done")
	if err := describeMismatch(hp.reads, lp.reads); err != nil {
		rec.fail("in-process reads differ from HTTP: %v", err)
	}
	res := &Result{Attempted: attempted, Failed: failed, Metrics: rec.EndToEnd}
	specs := endToEndSpecs
	if cfg.trace {
		if err := describeMismatch(hp.writes, lp.writes); err != nil {
			rec.fail("in-process writes differ from HTTP: %v", err)
		}
		if err := describeMismatch(hp.reads, lp.untraced); err != nil {
			rec.fail("untraced in-process reads differ from HTTP: %v", err)
		}
		rec.spans = lp.tr.spans
		rec.Counters = hp.counters
		rec.PerLayer = perLayer(plan, hp, lp)
		rec.LayerSpecs = perLayerSpecs
		res.Metrics, specs = rec.PerLayer, perLayerSpecs
	}
	if err := checkRepeat(cfg.outDir, rec); err != nil {
		rec.fail("%v", err)
	}
	if err := res.Metrics.checkAgainst(specs); err != nil {
		rec.fail("%v", err)
	}
	res.Correct = len(rec.Failures) == 0
	if !res.Correct {
		res.Metrics = Metrics{} // a run that fails a check prints no numbers
	}
	rec.Result = res
	if !res.Correct {
		return rec, fmt.Errorf("run failed its checks: %v", rec.Failures)
	}
	return rec, nil
}
