package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// client is one keep-alive connection to the server: the transport allows
// a single connection, so a closed loop on it never overlaps requests.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// raw sends one request and returns the whole body.
func (c *client) raw(ctx context.Context, method, path string, body any) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// Outcome is what one op returned, reduced to the fields that must repeat
// exactly from run to run plus its timing.
type Outcome struct {
	Op Op
	// OK is a 2xx answer with a well-formed body; Err says why not.
	OK  bool
	Err string
	// Latency is the client-side time of the op's request (for writes,
	// of the mutating request alone).
	Latency time.Duration
	// Ready is, for register/reregister, the time from sending the write
	// to the server's stamp of the new version turning ready; Steal is the
	// machine's steal time (seconds) from sending it to seeing it ready.
	Ready time.Duration
	Steal float64
	// Done is when a timed read completed, from the start of the phase.
	Done time.Duration
	// Answer is the op's deterministic result: the SQL and grading of a
	// translate, the rows of an execute, the version of a write.
	Answer string
	EM, EX bool
	Tokens int
}

// translateAnswer renders a translate result for the digest.
func translateAnswer(sql string, em, ex bool, tokens int) string {
	return fmt.Sprintf("%s\x1fem=%t\x1fex=%t\x1ftokens=%d", sql, em, ex, tokens)
}

// rowsAnswer renders an execute result for the digest.
func rowsAnswer(cols []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(cols, "\x1f"))
	for _, r := range rows {
		sb.WriteByte('\n')
		sb.WriteString(strings.Join(r, "\x1f"))
	}
	return sb.String()
}

// doRead sends one read op and checks its answer's shape.
func (c *client) doRead(ctx context.Context, o Op) Outcome {
	out := Outcome{Op: o}
	start := time.Now()
	var (
		data   []byte
		status int
		err    error
	)
	switch o.Kind {
	case opTranslate:
		req := service.TranslateRequest{Database: o.Tenant, Question: o.Question}
		if o.Tenant == "" {
			id := o.TaskID
			req.TaskID = &id
		}
		data, status, err = c.raw(ctx, http.MethodPost, "/v1/translate", req)
	case opExecute:
		data, status, err = c.raw(ctx, http.MethodPost, "/v1/execute", service.ExecuteRequest{Database: o.Tenant, SQL: o.SQL})
	default:
		out.Err = "not a read: " + o.Kind
		return out
	}
	out.Latency = time.Since(start)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if status != http.StatusOK {
		out.Err = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))
		return out
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	switch o.Kind {
	case opTranslate:
		var r service.TranslateResponse
		if err := dec.Decode(&r); err != nil {
			out.Err = "bad translate body: " + err.Error()
			return out
		}
		switch {
		case r.ExactMatch == nil || r.ExecMatch == nil || r.TotalTokens <= 0 || r.Error != "":
			out.Err = "translate body lacks grading or tokens: " + string(bytes.TrimSpace(data))
			return out
		case o.Tenant != "" && (r.Database != o.Tenant || r.State != "ready" || r.Version != 1):
			out.Err = fmt.Sprintf("tenant translate served by %s v%d %s, want %s v1 ready", r.Database, r.Version, r.State, o.Tenant)
			return out
		}
		out.EM, out.EX, out.Tokens = *r.ExactMatch, *r.ExecMatch, r.TotalTokens
		out.Answer = translateAnswer(r.SQL, *r.ExactMatch, *r.ExecMatch, r.TotalTokens)
	case opExecute:
		var r service.ExecuteResponse
		if err := dec.Decode(&r); err != nil {
			out.Err = "bad execute body: " + err.Error()
			return out
		}
		if r.Error != "" || len(r.Columns) == 0 {
			out.Err = "execute failed: " + r.Error
			return out
		}
		out.Answer = rowsAnswer(r.Columns, r.Rows)
	}
	out.OK = true
	return out
}

// doWrite sends one write op; register and reregister are then polled on
// GET /v1/databases/{name} until the expected version is ready.
func (c *client) doWrite(ctx context.Context, o Op, regs []service.RegisterRequest) Outcome {
	out := Outcome{Op: o}
	var (
		data   []byte
		status int
		want   int
	)
	steal0, err := stealTicks()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	start := time.Now()
	switch o.Kind {
	case opRegister:
		data, status, err = c.raw(ctx, http.MethodPost, "/v1/databases", regs[o.Reg])
		want = http.StatusCreated
	case opReregister:
		data, status, err = c.raw(ctx, http.MethodPut, "/v1/databases/"+o.Tenant, regs[o.Reg])
		want = http.StatusOK
	case opDelete:
		data, status, err = c.raw(ctx, http.MethodDelete, "/v1/databases/"+o.Tenant, nil)
		want = http.StatusNoContent
	default:
		out.Err = "not a write: " + o.Kind
		return out
	}
	out.Latency = time.Since(start)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	if status != want {
		out.Err = fmt.Sprintf("%s %s: HTTP %d, want %d: %s", o.Kind, o.Tenant, status, want, bytes.TrimSpace(data))
		return out
	}
	if o.Kind == opDelete {
		out.OK = true
		out.Answer = "deleted"
		return out
	}
	var st service.DatabaseStatusResponse
	if err := json.Unmarshal(data, &st); err != nil || st.Version != o.Version {
		out.Err = fmt.Sprintf("%s %s: bad status body (version %d, want %d): %v", o.Kind, o.Tenant, st.Version, o.Version, err)
		return out
	}
	built, err := c.awaitReady(ctx, o.Tenant, o.Version)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	// The server stamps the moment the version turned ready; on the same
	// machine's clock that times the write to ready without the polling
	// interval in it.
	out.Ready = built.Sub(start)
	if seen := time.Since(start); out.Ready <= 0 || out.Ready > seen {
		out.Err = fmt.Sprintf("%s %s: built at %v after sending, outside (0, %v]", o.Kind, o.Tenant, out.Ready, seen)
		return out
	}
	steal1, err := stealTicks()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Steal = ticksToS(steal1 - steal0)
	out.OK = true
	out.Answer = fmt.Sprintf("v%d demos=%d ready", o.Version, len(regs[o.Reg].Demos))
	return out
}

// readyPoll is the wait between readiness polls: short against a build
// (several milliseconds), and long enough that the polls take little CPU
// from the build they wait for on a 2-core host. Time to ready is read from
// the server's built stamp, so the interval does not quantise it.
const readyPoll = time.Millisecond

// awaitReady polls a tenant until version is ready and returns the time
// the server reports it turned ready.
func (c *client) awaitReady(ctx context.Context, name string, version int) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		data, status, err := c.raw(ctx, http.MethodGet, "/v1/databases/"+name, nil)
		if err != nil {
			return time.Time{}, fmt.Errorf("polling %s: %w", name, err)
		}
		if status != http.StatusOK {
			return time.Time{}, fmt.Errorf("polling %s: HTTP %d", name, status)
		}
		var st service.DatabaseStatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return time.Time{}, fmt.Errorf("polling %s: %w", name, err)
		}
		if st.Version == version && st.State == "ready" {
			built, err := time.Parse(time.RFC3339Nano, st.Built)
			if err != nil {
				return time.Time{}, fmt.Errorf("polling %s: built stamp: %w", name, err)
			}
			return built, nil
		}
		if st.Version > version {
			return time.Time{}, fmt.Errorf("polling %s: version %d overtook %d", name, st.Version, version)
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s v%d not ready within 60s (state %s)", name, version, st.State)
		}
		select {
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		case <-time.After(readyPoll):
		}
	}
}
