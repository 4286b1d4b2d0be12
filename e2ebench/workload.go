package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/spider"
)

// Corpus the server is started on (its -scale and -seed). The benchmark's
// own --seed never reaches the server: it only draws the request lists.
const (
	corpusScale = 1
	corpusSeed  = 1
)

// Op kinds. Reads go on the reader connection, writes on the writer.
const (
	opTranslate  = "translate"  // dev task by id, or a tenant question
	opExecute    = "execute"    // tenant gold SQL
	opRegister   = "register"   // POST /v1/databases, waited to ready
	opReregister = "reregister" // PUT /v1/databases/{name}, waited to ready
	opDelete     = "delete"     // DELETE /v1/databases/{name}
)

// Op is one request of a workload's list.
type Op struct {
	Kind string `json:"kind"`
	// TaskID names a dev task (dev-cold translates); -1 otherwise.
	TaskID int `json:"task_id"`
	// Tenant, Question and SQL address a registered tenant.
	Tenant   string `json:"tenant,omitempty"`
	Question string `json:"question,omitempty"`
	SQL      string `json:"sql,omitempty"`
	// Reg is the registration index in Plan.Regs for register/reregister.
	Reg int `json:"reg"`
	// Version is the tenant version a write must leave ready.
	Version int `json:"version,omitempty"`
}

func (o Op) key() string {
	switch o.Kind {
	case opTranslate:
		if o.Tenant == "" {
			return fmt.Sprintf("translate task=%d", o.TaskID)
		}
		return "translate " + o.Tenant + " q=" + o.Question
	case opExecute:
		return "execute " + o.Tenant + " sql=" + o.SQL
	}
	return fmt.Sprintf("%s %s reg=%d v=%d", o.Kind, o.Tenant, o.Reg, o.Version)
}

// Workload describes one traffic mix: how the server is started and how
// its request lists are drawn.
type Workload struct {
	Name string
	Why  string
	// ServerFlags are the workload's own flags on top of baseFlags.
	ServerFlags []string
	// DataDir starts the server with a fresh -data-dir (durable tenants).
	DataDir bool
}

// workloads is the benchmark's traffic set, each with the reason it was
// chosen (BENCHMARK.json repeats it). Every workload is a closed loop: each
// connection sends its next request only when the previous one answered.
// No workload uses more than two connections, the core count of the
// reference host.
var workloads = []Workload{
	{
		Name:        "dev-cold",
		Why:         "all 1,034 Spider-dev tasks in seeded order on one connection, LLM cache off: every request pays the LLM, adaption and the executor's overflowing plan cache",
		ServerFlags: []string{"-cache", "0"},
	},
	{
		Name:    "tenant-churn",
		Why:     "reads on ready tenants beside paced re-register/delete/register writes on a WAL data dir: the only mix that runs catalog builds, store, build jobs and plan invalidation",
		DataDir: true,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Work per unit of --seconds. The lists hold about seconds × rate
// operations, so a run is work-bound (it ends when its list is done) and
// still measures about --seconds on a 2-core host. Every run of one seed and
// one --seconds replays exactly the same requests.
const (
	devColdRate    = 120 // dev-cold ops per second, rounded up to whole passes
	churnReadRate  = 450 // tenant-churn reads per second, rounded up to whole rounds
	churnCycleHz   = 3.5 // tenant-churn write cycles (PUT, DELETE, POST) per second
	churnExecEvery = 3   // every third demo of a stable tenant is also executed
	stableTenants  = 6   // tenants the reads go to, ready before timing
	churnTenants   = 3   // tenants the writes cycle through
	probeRounds    = 3   // dev-cold: registrations per dev database timed to ready outside the timed phase
)

// minTimedTranslates is the fewest translates in a run's timed reads: the
// quiet half of its rounds (see keepQuiet) needs the 1,000 that put ten
// samples beyond a p99.
const minTimedTranslates = 2000

// devColdRoundReads is the least number of reads in a dev-cold round; a
// pass is cut into the most rounds of equal length that allows, so a
// round lasts about a second and a burst of steal spoils few of them.
const devColdRoundReads = 90

// churnThink is the writer's pause after each write cycle: the writer is a
// closed loop with think time, so its fixed list of cycles spreads over
// most of the read phase instead of racing through its start.
const churnThink = 150 * time.Millisecond

// writeLoop runs writes in order on one connection, pausing churnThink
// after each cycle (which ends with a register).
func writeLoop(writes []Op, do func(i int, o Op) Outcome) []Outcome {
	out := make([]Outcome, 0, len(writes))
	for i, o := range writes {
		out = append(out, do(i, o))
		if o.Kind == opRegister {
			time.Sleep(churnThink)
		}
	}
	return out
}

// Plan is everything a run sends, drawn from the seed alone.
type Plan struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Setup lists the registrations made, and waited to ready, during
	// set-up: the stable and churn tenants of tenant-churn.
	Setup []int `json:"setup"`
	// Probes are dev-cold registrations whose time to ready is measured, each
	// deleted again; half before the warm-up, half after the timed phase.
	Probes []int `json:"probes"`
	// Reads and Writes are the timed lists, one per connection. Reads is
	// Rounds consecutive measurement rounds of equal length, each about a
	// second; throughput and latency are taken over the quiet rounds (see
	// keepQuiet).
	Rounds int  `json:"rounds"`
	Reads  []Op `json:"reads"`
	Writes []Op `json:"writes"`
	// Regs holds every registration body the plan refers to.
	Regs []service.RegisterRequest `json:"-"`
}

// hash identifies the plan's requests: SHA-256 over its JSON form,
// registration bodies included.
func (p *Plan) hash() (string, error) {
	data, err := json.Marshal(struct {
		*Plan
		Regs []service.RegisterRequest
	}{p, p.Regs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Warmup is every distinct read of the plan once, in order of first use:
// the untimed pass that fills caches before timing.
func (p *Plan) Warmup() []Op {
	seen := map[string]bool{}
	var out []Op
	for _, o := range p.Reads {
		if k := o.key(); !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// devByDB groups the dev tasks by database, in corpus order.
func devByDB(c *spider.Corpus) [][]*spider.Example {
	idx := map[*schema.Database]int{}
	for i, db := range c.Dev.Databases {
		idx[db] = i
	}
	out := make([][]*spider.Example, len(c.Dev.Databases))
	for _, e := range c.Dev.Examples {
		i := idx[e.DB]
		out[i] = append(out[i], e)
	}
	return out
}

// tenantName is a /v1/databases path segment for a dev database.
func tenantName(prefix string, db *schema.Database) string {
	return prefix + strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' {
			return r
		}
		return '_'
	}, db.Name)
}

// registration builds a tenant registration from a dev database: its
// schema, its rows, and the given dev questions as demonstrations.
func registration(name string, db *schema.Database, demos []*spider.Example) service.RegisterRequest {
	req := service.RegisterRequest{Name: name}
	for _, t := range db.Tables {
		ts := service.TableSpec{Name: t.Name, NLName: t.NLName, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			typ := "text"
			if c.Type == schema.TypeNumber {
				typ = "number"
			}
			ts.Columns = append(ts.Columns, service.ColumnSpec{Name: c.Name, Type: typ, NLName: c.NLName})
		}
		for _, r := range t.Rows {
			row := make([]any, len(r))
			for i, v := range r {
				switch v.Kind {
				case schema.KindStr:
					row[i] = v.Str
				case schema.KindNum:
					row[i] = v.Num
				}
			}
			ts.Rows = append(ts.Rows, row)
		}
		req.Tables = append(req.Tables, ts)
	}
	for _, fk := range db.ForeignKeys {
		req.ForeignKeys = append(req.ForeignKeys, service.ForeignKeySpec{
			FromTable: fk.FromTable, FromColumn: fk.FromColumn, ToTable: fk.ToTable, ToColumn: fk.ToColumn,
		})
	}
	for _, e := range demos {
		req.Demos = append(req.Demos, catalog.Demo{NL: e.NL, SQL: e.GoldSQL})
	}
	return req
}

// subset keeps a seeded three quarters of demos, in their original order.
func subset(rng *rand.Rand, demos []*spider.Example) []*spider.Example {
	keep := rng.Perm(len(demos))[:(len(demos)*3+3)/4]
	mark := make([]bool, len(demos))
	for _, i := range keep {
		mark[i] = true
	}
	var out []*spider.Example
	for i, e := range demos {
		if mark[i] {
			out = append(out, e)
		}
	}
	return out
}

// NewPlan draws a workload's request lists from seed. It is a pure
// function of (workload, seed, seconds, corpus). Each workload sends a
// fixed mix of requests and the seed draws their order (and, in
// tenant-churn, the demo subsets of re-registrations), so the paper's
// figures (em_pct, ex_pct, tokens_per_q) are the same for every seed and a
// seed moves only arrival order and what the caches hold.
func NewPlan(w Workload, seed int64, seconds int, c *spider.Corpus) (*Plan, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	if len(c.Dev.Databases) < stableTenants+churnTenants {
		return nil, fmt.Errorf("corpus has %d dev databases, need %d", len(c.Dev.Databases), stableTenants+churnTenants)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Workload: w.Name, Seed: seed}
	byDB := devByDB(c)
	addReg := func(r service.RegisterRequest) int {
		p.Regs = append(p.Regs, r)
		return len(p.Regs) - 1
	}
	n := len(c.Dev.Examples)
	switch w.Name {
	case "dev-cold":
		// Whole passes over the dev tasks, each in its own seeded order.
		passes := max(ceilDiv(minTimedTranslates, n), int(math.Ceil(float64(seconds*devColdRate)/float64(n))))
		for i := 0; i < passes; i++ {
			for _, id := range rng.Perm(n) {
				p.Reads = append(p.Reads, Op{Kind: opTranslate, TaskID: id})
			}
		}
		perPass := 1
		for d := 2; n/d >= devColdRoundReads; d++ {
			if n%d == 0 {
				perPass = d
			}
		}
		p.Rounds = passes * perPass
	case "tenant-churn":
		// Stable tenants take the reads; churn tenants take the writes.
		var round []Op
		for d := 0; d < stableTenants; d++ {
			db := c.Dev.Databases[d]
			r := addReg(registration(tenantName("s-", db), db, byDB[d]))
			p.Setup = append(p.Setup, r)
			for i, demo := range p.Regs[r].Demos {
				name := p.Regs[r].Name
				round = append(round, Op{Kind: opTranslate, TaskID: -1, Tenant: name, Question: demo.NL})
				if i%churnExecEvery == 0 {
					round = append(round, Op{Kind: opExecute, TaskID: -1, Tenant: name, SQL: demo.SQL})
				}
			}
		}
		// A measurement round sends every stable read once, in its own
		// seeded order.
		p.Rounds = max(ceilDiv(minTimedTranslates, TranslateCount(round)),
			int(math.Ceil(float64(seconds*churnReadRate)/float64(len(round)))))
		for i := 0; i < p.Rounds; i++ {
			lo := len(p.Reads)
			p.Reads = append(p.Reads, round...)
			r := p.Reads[lo:]
			rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		}
		var churn []int // registration index of each churn tenant's full demo set
		for d := stableTenants; d < stableTenants+churnTenants; d++ {
			db := c.Dev.Databases[d]
			r := addReg(registration(tenantName("c-", db), db, byDB[d]))
			churn = append(churn, r)
			p.Setup = append(p.Setup, r)
		}
		cycles := int(math.Ceil(float64(seconds) * churnCycleHz))
		for i := 0; i < cycles; i++ {
			full := churn[i%len(churn)]
			d := stableTenants + i%len(churn)
			name := p.Regs[full].Name
			put := addReg(registration(name, c.Dev.Databases[d], subset(rng, byDB[d])))
			p.Writes = append(p.Writes,
				Op{Kind: opReregister, TaskID: -1, Tenant: name, Reg: put, Version: 2},
				Op{Kind: opDelete, TaskID: -1, Tenant: name},
				Op{Kind: opRegister, TaskID: -1, Tenant: name, Reg: full, Version: 1})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.Name)
	}
	if w.Name == "dev-cold" {
		// Every dev database is probed probeRounds times, in seeded order.
		for i := 0; i < probeRounds; i++ {
			for _, d := range rng.Perm(len(c.Dev.Databases)) {
				db := c.Dev.Databases[d]
				p.Probes = append(p.Probes, addReg(registration(tenantName("p-", db), db, byDB[d])))
			}
		}
	}
	return p, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TranslateCount is how many reads of ops are translates.
func TranslateCount(ops []Op) int {
	n := 0
	for _, o := range ops {
		if o.Kind == opTranslate {
			n++
		}
	}
	return n
}
