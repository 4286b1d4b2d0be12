package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spider"
	"repro/internal/store"
)

// world is the in-process twin of one benchmark server: the same corpus,
// dev pipeline and LLM cache configuration, and a catalog built with the
// benchmark's own store and an external build-job manager.
type world struct {
	corpus    *spider.Corpus
	sim       llm.Client
	devClient llm.Client
	pipeline  *core.Pipeline
	regs      []service.RegisterRequest

	cat  *catalog.Catalog
	st   *store.Store
	jobs *jobs.Manager

	mu      sync.Mutex
	mirrors map[*core.Pipeline]*mirror
}

// Server defaults the twin reproduces: the LLM cache size, the bootstrap
// corpora of the catalog's warming models, the per-tenant LLM cache, and
// the catalog's build queue.
const (
	serverCacheCap       = 4096
	serverBootstrapSeed  = 2
	serverTenantCacheCap = 1024
	serverMaxTenants     = 64
	serverBuildRunners   = 2
	serverBuildQueue     = 64
)

// newWorld builds the twin of a server started with w's flags on a corpus
// generated at scale. withCatalog adds the tenant catalog, with its own
// store in dataDir; dev-only checks skip its start-up cost.
func newWorld(w Workload, c *spider.Corpus, scale float64, regs []service.RegisterRequest, dataDir string, withCatalog bool) (*world, error) {
	sim := llm.NewSim(llm.ChatGPT)
	wd := &world{corpus: c, sim: sim, devClient: sim, regs: regs, mirrors: map[*core.Pipeline]*mirror{}}
	if !hasFlag(w.ServerFlags, "-cache", "0") {
		wd.devClient = llm.NewCache(sim, serverCacheCap)
	}
	wd.pipeline = core.New(c.Train.Examples, wd.devClient, core.DefaultConfig())
	if !withCatalog {
		return wd, nil
	}
	boot := append([]*spider.Example(nil), c.Train.Examples...)
	boot = append(boot, spider.GenerateSmall(serverBootstrapSeed, scale).Train.Examples...)
	st, err := store.Open(dataDir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	wd.st = st
	wd.jobs = jobs.NewManager(nil, jobs.Config{Runners: serverBuildRunners, Queue: serverBuildQueue, TTL: time.Minute})
	wd.cat, err = catalog.New(catalog.Config{
		Client: sim, Fallback: catalog.NewFallback(boot), MaxTenants: serverMaxTenants,
		CacheCap: serverTenantCacheCap, Store: st, Jobs: wd.jobs,
	})
	if err != nil {
		wd.close()
		return nil, err
	}
	return wd, nil
}

func hasFlag(flags []string, name, val string) bool {
	for i := 0; i+1 < len(flags); i++ {
		if flags[i] == name && flags[i+1] == val {
			return true
		}
	}
	return false
}

func (wd *world) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if wd.cat != nil {
		_ = wd.cat.Close(ctx) // a build cut short at exit loses nothing measured
	}
	if wd.jobs != nil {
		_ = wd.jobs.Shutdown(ctx)
	}
	if wd.st != nil {
		_ = wd.st.Close()
	}
}

// mirrorFor returns the (memoized) mirror of a pipeline.
func (wd *world) mirrorFor(p *core.Pipeline, train []*spider.Example, client llm.Client) (*mirror, error) {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if m, ok := wd.mirrors[p]; ok {
		return m, nil
	}
	m, err := newMirror(p, train, client, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	wd.mirrors[p] = m
	return m, nil
}

// specDatabase decodes a registration body into the schema the server
// builds from it.
func specDatabase(req service.RegisterRequest) *schema.Database {
	db := &schema.Database{Name: req.Name}
	for _, ts := range req.Tables {
		t := &schema.Table{Name: ts.Name, NLName: ts.NLName, PrimaryKey: ts.PrimaryKey}
		if t.NLName == "" {
			t.NLName = ts.Name
		}
		for _, cs := range ts.Columns {
			ct := schema.TypeText
			if cs.Type == "number" {
				ct = schema.TypeNumber
			}
			nl := cs.NLName
			if nl == "" {
				nl = cs.Name
			}
			t.Columns = append(t.Columns, schema.Column{Name: cs.Name, Type: ct, NLName: nl})
		}
		for _, row := range ts.Rows {
			vals := make([]schema.Value, len(row))
			for i, cell := range row {
				switch v := cell.(type) {
				case string:
					vals[i] = schema.S(v)
				case float64:
					vals[i] = schema.N(v)
				default:
					vals[i] = schema.Null()
				}
			}
			t.Rows = append(t.Rows, vals)
		}
		db.Tables = append(db.Tables, t)
	}
	for _, fk := range req.ForeignKeys {
		db.ForeignKeys = append(db.ForeignKeys, schema.ForeignKey{
			FromTable: fk.FromTable, FromColumn: fk.FromColumn, ToTable: fk.ToTable, ToColumn: fk.ToColumn,
		})
	}
	return db
}

// write applies a write op through the catalog and, for registrations,
// polls the tenant's snapshot until the new version is ready.
func (wd *world) write(op int, o Op, tr *tracer) Outcome {
	out := Outcome{Op: o}
	start := time.Now()
	var err error
	switch o.Kind {
	case opRegister, opReregister:
		reg := catalog.Registration{DB: specDatabase(wd.regs[o.Reg]), Demos: wd.regs[o.Reg].Demos}
		if o.Kind == opRegister {
			_, err = wd.cat.Register(reg)
		} else {
			_, err = wd.cat.Reregister(reg)
		}
		tr.span(op, "catalog.register", "", start)
		if err == nil {
			t := time.Now()
			err = wd.awaitReady(o.Tenant, o.Version)
			tr.span(op, "catalog.build", "", t)
		}
		out.Answer = fmt.Sprintf("v%d demos=%d ready", o.Version, len(wd.regs[o.Reg].Demos))
	case opDelete:
		err = wd.cat.Deregister(o.Tenant)
		tr.span(op, "catalog.deregister", "", start)
		out.Answer = "deleted"
	default:
		err = fmt.Errorf("not a write: %s", o.Kind)
	}
	out.Ready = time.Since(start)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.OK = true
	return out
}

func (wd *world) awaitReady(name string, version int) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if t, ok := wd.cat.Lookup(name); ok {
			s := t.Snapshot()
			if s.Version == version && s.State == catalog.StateReady {
				return nil
			}
		}
		time.Sleep(readyPoll / 2)
	}
	return fmt.Errorf("%s v%d not ready within 60s", name, version)
}

// read runs one read op in process. With a tracer it goes through the
// mirror, stage by stage; without, through core.Pipeline.TranslateContext,
// whose time alone is added to *translate.
func (wd *world) read(op int, o Op, tr *tracer, translate *time.Duration) Outcome {
	out := Outcome{Op: o}
	var (
		p     *core.Pipeline
		e     *spider.Example
		db    *schema.Database
		train []*spider.Example
		cl    llm.Client
	)
	if o.Tenant == "" {
		if o.TaskID < 0 || o.TaskID >= len(wd.corpus.Dev.Examples) {
			out.Err = fmt.Sprintf("task %d out of range", o.TaskID)
			return out
		}
		e = wd.corpus.Dev.Examples[o.TaskID]
		p, db, train, cl = wd.pipeline, e.DB, wd.corpus.Train.Examples, wd.devClient
	} else {
		if wd.cat == nil {
			out.Err = "no catalog for tenant " + o.Tenant
			return out
		}
		t, ok := wd.cat.Lookup(o.Tenant)
		if !ok {
			out.Err = "unknown tenant " + o.Tenant
			return out
		}
		snap := t.Snapshot()
		if snap.State != catalog.StateReady {
			out.Err = "tenant " + o.Tenant + " not ready"
			return out
		}
		if o.Kind == opExecute {
			start := time.Now()
			res, err := snap.Plans.ExecCtx(context.Background(), snap.DB, o.SQL)
			tr.span(op, "sqlexec.exec", "", start)
			if err != nil {
				out.Err = "execute failed: " + err.Error()
				return out
			}
			rows := make([][]string, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = make([]string, len(r))
				for j, v := range r {
					rows[i][j] = v.String()
				}
			}
			out.OK, out.Answer = true, rowsAnswer(res.Cols, rows)
			return out
		}
		var found bool
		if e, found = snap.Oracle(o.Question); !found {
			out.Err = "no demo resolves " + o.Question
			return out
		}
		p, db, train, cl = snap.Pipeline, snap.DB, snap.Demos, wd.sim
		if snap.Cache != nil {
			cl = snap.Cache
		}
	}
	var res core.Translation
	if tr != nil {
		m, err := wd.mirrorFor(p, train, cl)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		res = m.translate(op, e, tr)
	} else {
		start := time.Now()
		res = p.TranslateContext(context.Background(), e)
		*translate += time.Since(start)
	}
	start := time.Now()
	em := eval.ExactSetMatchSQL(res.SQL, e.GoldSQL)
	ex := eval.ExecutionMatch(db, res.SQL, e.GoldSQL)
	tr.span(op, "eval.match", "", start)
	tokens := res.InputTokens + res.OutputTokens
	out.OK, out.EM, out.EX, out.Tokens = true, em, ex, tokens
	out.Answer = translateAnswer(res.SQL, em, ex, tokens)
	return out
}

// replay runs reads (and, concurrently, writes, as the HTTP run does) in
// process and returns their outcomes in list order.
func (wd *world) replay(reads, writes []Op, tr *tracer, translate *time.Duration) (rOut, wOut []Outcome) {
	var wg sync.WaitGroup
	if len(writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wOut = writeLoop(writes, func(i int, o Op) Outcome { return wd.write(len(reads)+i, o, tr) })
		}()
	}
	for i, o := range reads {
		rOut = append(rOut, wd.read(i, o, tr, translate))
	}
	wg.Wait()
	return rOut, wOut
}

// registerSetup registers the plan's set-up tenants and waits until every
// one is ready.
func (wd *world) registerSetup(setup []int) error {
	for _, r := range setup {
		reg := wd.regs[r]
		if _, err := wd.cat.Register(catalog.Registration{DB: specDatabase(reg), Demos: reg.Demos}); err != nil {
			return fmt.Errorf("registering %s: %w", reg.Name, err)
		}
	}
	for _, r := range setup {
		if err := wd.awaitReady(wd.regs[r].Name, 1); err != nil {
			return err
		}
	}
	return nil
}

// describeMismatch reports the first op whose in-process answer differs
// from the HTTP one.
func describeMismatch(http, local []Outcome) error {
	if len(http) != len(local) {
		return fmt.Errorf("%d HTTP outcomes against %d in-process", len(http), len(local))
	}
	for i := range http {
		if !local[i].OK {
			return fmt.Errorf("op %d (%s): in-process failed: %s", i, http[i].Op.key(), local[i].Err)
		}
		if http[i].Answer != local[i].Answer {
			return fmt.Errorf("op %d (%s): HTTP answered %q, in-process %q", i, http[i].Op.key(),
				strings.ReplaceAll(http[i].Answer, "\x1f", " | "), strings.ReplaceAll(local[i].Answer, "\x1f", " | "))
		}
	}
	return nil
}
