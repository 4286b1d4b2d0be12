package main

import (
	"bufio"
	"context"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// baseFlags start every timed server: the full corpus, tracing off, an
// ephemeral loopback port, and JSON logs so the bound address can be read
// back from standard error.
var baseFlags = []string{
	"-addr", "127.0.0.1:0",
	"-scale", strconv.Itoa(corpusScale),
	"-seed", strconv.Itoa(corpusSeed),
	"-trace-sample", "-1",
	"-log-format", "json",
	"-log-level", "info",
	"-drain-timeout", "10s",
}

// checkServerFlags refuses a configuration that would time something other
// than the serving path: tracing on, or LLM fault injection.
func checkServerFlags(flags []string) error {
	for i := 0; i < len(flags); i++ {
		name, val, hasVal := strings.Cut(strings.TrimLeft(flags[i], "-"), "=")
		switch {
		case strings.HasPrefix(name, "llm-fault"):
			return fmt.Errorf("refusing to time the server with -%s", name)
		case name == "trace-sample":
			if !hasVal && i+1 < len(flags) {
				i++
				val = flags[i]
			}
			if v, err := strconv.ParseFloat(val, 64); err != nil || v >= 0 {
				return fmt.Errorf("refusing to time the server with tracing on (-trace-sample %s)", val)
			}
		}
	}
	return nil
}

// checkServerBinary refuses a server built with the race detector, whose
// instrumentation would dominate every timing.
func checkServerBinary(path string) (*buildinfo.BuildInfo, error) {
	bi, err := buildinfo.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading build info of %s: %w", path, err)
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return nil, fmt.Errorf("refusing to time %s: built with -race", path)
		}
	}
	return bi, nil
}

// server is one running nl2sql-server child process.
type server struct {
	cmd   *exec.Cmd
	base  string
	flags []string
	start time.Time
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's result, valid after done

	mu   sync.Mutex
	tail []string // last lines of standard error, for failure reports
}

// startServer launches bin with flags and waits for /healthz to answer
// 200. The returned duration runs from process start to that answer.
func startServer(ctx context.Context, bin string, flags []string) (*server, time.Duration, error) {
	if err := checkServerFlags(flags); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, flags...)
	cmd.Stdout = io.Discard
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, flags: flags, done: make(chan struct{})}
	addrc := make(chan string, 1)
	start := time.Now()
	s.start = start
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if sent {
				continue
			}
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
				addrc <- rec.Addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep the pipe drained after a scan error
	}()
	go func() {
		<-logDone // Wait closes the pipe; read it to the end first
		s.err = cmd.Wait()
		close(s.done)
	}()

	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.done:
		return nil, 0, fmt.Errorf("server exited during start-up: %v\n%s", s.err, s.stderrTail())
	case <-deadline.C:
		s.stop()
		return nil, 0, fmt.Errorf("server did not report its address within 60s\n%s", s.stderrTail())
	case <-ctx.Done():
		s.stop()
		return nil, 0, ctx.Err()
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before /healthz answered: %v\n%s", s.err, s.stderrTail())
		case <-deadline.C:
			s.stop()
			return nil, 0, fmt.Errorf("/healthz did not answer 200 within 60s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// clockTick is the unit of the CPU times in /proc (USER_HZ, 100 on Linux).
const clockTick = 0.01

// cpuSeconds reads the process's user plus system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3, so
	// utime and stime (fields 14 and 15) are the 12th and 13th.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", s.cmd.Process.Pid)
	}
	var total float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total * clockTick, nil
}

// stealTicks reads the machine's total CPU steal time in clock ticks,
// summed over CPUs: time the hypervisor ran something else while a CPU of
// this machine wanted to run.
func stealTicks() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// ticksToS converts a count of clock ticks to seconds.
func ticksToS(t int64) float64 { return float64(t) * clockTick }

// stop drains the server with SIGTERM, kills it if the drain overruns, and
// returns once the process has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// scrape fetches and parses /v1/metrics.
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	data, status, err := c.raw(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scraping /v1/metrics: HTTP %d", status)
	}
	return metrics.ParseExposition(data)
}

// counterDelta diffs one series across two scrapes. A series missing from
// either scrape is an error: a counter the server stopped exporting must
// not read as zero work.
func counterDelta(before, after map[string]float64, series string) (float64, error) {
	b, ok1 := before[series]
	a, ok2 := after[series]
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("series %s missing from /v1/metrics", series)
	}
	return a - b, nil
}
