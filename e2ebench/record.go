package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Record is the raw output of one run: every metric, the context needed to
// compare it with another run, and the evidence behind the verdict.
type Record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Context  Context `json:"context"`
	// PlanSHA256 identifies the request lists; Warmup, Reads and Writes
	// count the warm-up pass and the timed lists.
	PlanSHA256 string `json:"plan_sha256"`
	Warmup     int    `json:"warmup_requests"`
	Reads      int    `json:"timed_reads"`
	Writes     int    `json:"timed_writes"`
	// Digest is SHA-256 over the ordered (op, answer) pairs of the timed
	// reads, then of the timed writes.
	Digest     string       `json:"digest"`
	Paper      paperFigures `json:"paper_figures"`
	SetupS     []float64    `json:"setup_s_samples"`
	Ready      []Sample     `json:"ready_samples"`
	Translate  []Percentile `json:"translate_latency_ms"`
	WallS      float64      `json:"timed_wall_s"`
	ServerCPUS float64      `json:"timed_server_cpu_s"`
	StealS     float64      `json:"timed_steal_s"`
	Rounds     []Round      `json:"rounds"`
	Counters   Metrics      `json:"http_counters,omitempty"`
	SpansFile  string       `json:"spans_file,omitempty"`
	Failures   []string     `json:"failures,omitempty"`
	EndToEnd   Metrics      `json:"end_to_end"`
	PerLayer   Metrics      `json:"per_layer,omitempty"`
	LayerSpecs []MetricSpec `json:"per_layer_specs,omitempty"`
	Result     *Result      `json:"result"`
	spans      []Span
}

// Context identifies what was measured and where.
type Context struct {
	Start           time.Time `json:"start"`
	Commit          string    `json:"commit"`
	ServerSHA256    string    `json:"server_sha256"`
	GoVersion       string    `json:"go_version"`
	ServerGoVersion string    `json:"server_go_version"`
	NumCPU          int       `json:"nproc"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	GOMAXPROCSEnv   string    `json:"gomaxprocs_env,omitempty"`
	ServerFlags     []string  `json:"server_flags"`
}

// runContext records the toolchain, host and server binary of a run. It
// fails for a server built with the race detector.
func runContext(bin string, flags []string) (Context, error) {
	c := Context{
		Start: time.Now(), Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOMAXPROCSEnv: os.Getenv("GOMAXPROCS"), ServerFlags: flags,
	}
	bi, err := checkServerBinary(bin)
	if err != nil {
		return c, err
	}
	c.ServerGoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			c.Commit = s.Value
		}
	}
	f, err := os.Open(bin)
	if err != nil {
		return c, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return c, err
	}
	c.ServerSHA256 = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// progress logs a step of the run to standard error with its offset from
// the start of the run.
func (r *Record) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: %6.2fs %s\n", time.Since(r.Context.Start).Seconds(), fmt.Sprintf(format, args...))
}

func (r *Record) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// write stores the record (and any spans) under dir/runs.
func (r *Record) write(dir string) error {
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%t-%d", r.Workload, r.Seed, r.Trace, r.Context.Start.UnixNano())
	if len(r.spans) > 0 {
		r.SpansFile = filepath.Join(runs, base+".spans.jsonl")
		if err := writeSpans(r.SpansFile, r.spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(runs, base+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: raw record %s\n", path)
	return nil
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// digest hashes the ordered (op, answer) pairs of reads, then writes.
func digest(reads, writes []Outcome) string {
	h := sha256.New()
	for _, list := range [][]Outcome{reads, writes} {
		for _, o := range list {
			fmt.Fprintf(h, "%s\x1e%t\x1e%s\x1d", o.Op.key(), o.OK, o.Answer)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRepeat compares the run's digest and paper figures with any earlier
// run of the same request lists against the same server binary in this
// output directory; the first such run records them.
func checkRepeat(dir string, rec *Record) error {
	type entry struct {
		Digest string       `json:"digest"`
		Paper  paperFigures `json:"paper_figures"`
	}
	path := filepath.Join(dir, "digests.json")
	all := map[string]entry{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	key := fmt.Sprintf("%s seed=%d plan=%s server=%s", rec.Workload, rec.Seed, rec.PlanSHA256, rec.Context.ServerSHA256)
	cur := entry{Digest: rec.Digest, Paper: rec.Paper}
	if prev, ok := all[key]; ok {
		if prev != cur {
			return fmt.Errorf("a repeat of %s differs: digest %s→%s, paper figures %+v→%+v", key, prev.Digest, cur.Digest, prev.Paper, cur.Paper)
		}
		return nil
	}
	all[key] = cur
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
