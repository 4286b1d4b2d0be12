// Package benchfix holds the synthetic benchmark fixtures shared by the
// in-repo micro-benchmarks (internal/sqlexec, internal/adaption,
// internal/catalog) and the machine-readable CI harness (cmd/benchmarks
// -json). Keeping one fixture guarantees each BENCH_*.json artifact
// measures exactly the workload the in-repo benchmark of the same shape
// measures.
package benchfix

import (
	"fmt"
	"math/rand"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/spider"
)

// JoinHeavySQL is the equi-join-heavy workload: a three-table FK chain with
// a selective predicate on each table. Pushdown shrinks the build sides
// before the hash joins materialize anything; the unoptimized plan
// nested-loops the full chain and filters last.
const JoinHeavySQL = "SELECT T1.val FROM c AS T1 JOIN p AS T2 ON T1.p_id = T2.id JOIN g AS T3 ON T2.g_id = T3.id " +
	"WHERE T2.grade > 3 AND T3.region = 'region1' AND T1.val > 200"

// InSubquerySQL exercises the hash semi-join for IN subqueries.
const InSubquerySQL = "SELECT val FROM c WHERE p_id IN (SELECT id FROM p WHERE grade > 2)"

// The remaining executor workloads, one per physical operator under test.
const (
	ScanFilterSQL = "SELECT val FROM c WHERE val > 500"
	TwoTableSQL   = "SELECT T1.val FROM c AS T1 JOIN p AS T2 ON T1.p_id = T2.id WHERE T2.grade > 5"
	GroupBySQL    = "SELECT name, COUNT(*) FROM p GROUP BY name HAVING COUNT(*) > 2"
	SetOpSQL      = "SELECT name FROM p WHERE grade > 5 EXCEPT SELECT name FROM p WHERE grade < 3"
	ScalarSubSQL  = "SELECT name FROM p WHERE grade = (SELECT MAX(grade) FROM p)"
)

// Canonical workload sizes. Both harnesses (go test -bench and
// cmd/benchmarks -json) must use these so their ns/op figures are
// comparable.
const (
	// ExecRows sizes the child table for the single-execution benchmarks.
	ExecRows = 1000
	// ReexecRows sizes the child table for the prepared/replan
	// re-execution benchmarks (run once per instance per iteration).
	ReexecRows = 500
	// ReexecInstances is how many reinstantiated databases the
	// re-execution benchmarks cycle through, the TS-metric shape.
	ReexecInstances = 6
)

// VoteCandidates is the consistency-vote fixture: the 30 completions the
// simulated ChatGPT samples for a zero-shot prompt on one dev task of a
// small corpus (Consistency = 30, the paper's default), and that task's
// database. Like a real vote, the list is mostly duplicates: 4 distinct
// texts, 2 of which fail execution as sampled and go through repair.
func VoteCandidates() (*schema.Database, []string) {
	c := spider.GenerateSmall(123, 0.05)
	e := c.Dev.Examples[4]
	resp := llm.NewSim(llm.ChatGPT).Complete(llm.Request{
		Prompt:         prompt.Build("", nil, e.DB, e.NL, 0).Text,
		N:              30,
		Task:           e,
		SchemaInPrompt: e.DB,
		Seed:           int64(e.ID),
	})
	return e.DB, resp.SQLs
}

// DemoSpec is one tenant demonstration (NL question + gold SQL) for the
// catalog benchmarks. It deliberately avoids importing internal/catalog so
// that package's own tests can share the fixture without an import cycle.
type DemoSpec struct{ NL, SQL string }

// TenantDB builds the two-table tenant schema (shop, item) used by the
// catalog registration/lookup benchmarks; extraCols appends text columns
// to the item table to vary the schema fingerprint.
func TenantDB(name string, extraCols ...string) *schema.Database {
	items := &schema.Table{
		Name: "item", NLName: "item", PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber, NLName: "id"},
			{Name: "shop_id", Type: schema.TypeNumber, NLName: "shop id"},
			{Name: "label", Type: schema.TypeText, NLName: "label"},
			{Name: "price", Type: schema.TypeNumber, NLName: "price"},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.N(1), schema.S("apple"), schema.N(3)},
			{schema.N(2), schema.N(1), schema.S("pear"), schema.N(5)},
			{schema.N(3), schema.N(2), schema.S("quince"), schema.N(7)},
		},
	}
	for _, c := range extraCols {
		items.Columns = append(items.Columns, schema.Column{Name: c, Type: schema.TypeText, NLName: c})
		for i := range items.Rows {
			items.Rows[i] = append(items.Rows[i], schema.S("x"))
		}
	}
	return &schema.Database{
		Name: name,
		Tables: []*schema.Table{
			{
				Name: "shop", NLName: "shop", PrimaryKey: "id",
				Columns: []schema.Column{
					{Name: "id", Type: schema.TypeNumber, NLName: "id"},
					{Name: "shop_name", Type: schema.TypeText, NLName: "shop name"},
				},
				Rows: [][]schema.Value{
					{schema.N(1), schema.S("corner")},
					{schema.N(2), schema.S("market")},
				},
			},
			items,
		},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "item", FromColumn: "shop_id", ToTable: "shop", ToColumn: "id"},
		},
	}
}

// TenantDemos is the demonstration pool registered with TenantDB.
func TenantDemos() []DemoSpec {
	return []DemoSpec{
		{NL: "What are the labels of items sold by the shop named corner?",
			SQL: "SELECT T1.label FROM item AS T1 JOIN shop AS T2 ON T1.shop_id = T2.id WHERE T2.shop_name = 'corner'"},
		{NL: "How many items does each shop sell?",
			SQL: "SELECT T2.shop_name, COUNT(*) FROM item AS T1 JOIN shop AS T2 ON T1.shop_id = T2.id GROUP BY T2.shop_name"},
		{NL: "List all item labels ordered by price.",
			SQL: "SELECT label FROM item ORDER BY price"},
	}
}

// DB builds the three-table FK chain (grandparent g, parent p, child c)
// used by the executor benchmarks, deterministic in rows.
func DB(rows int) *schema.Database {
	rng := rand.New(rand.NewSource(7))
	grand := &schema.Table{
		Name: "g", PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "region", Type: schema.TypeText},
		},
	}
	for i := 0; i < rows/16+1; i++ {
		grand.Rows = append(grand.Rows, []schema.Value{
			schema.N(float64(i + 1)),
			schema.S(fmt.Sprintf("region%d", i%5)),
		})
	}
	parent := &schema.Table{
		Name: "p", PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "g_id", Type: schema.TypeNumber},
			{Name: "name", Type: schema.TypeText},
			{Name: "grade", Type: schema.TypeNumber},
		},
	}
	for i := 0; i < rows/4+1; i++ {
		parent.Rows = append(parent.Rows, []schema.Value{
			schema.N(float64(i + 1)),
			schema.N(float64(1 + rng.Intn(len(grand.Rows)))),
			schema.S(fmt.Sprintf("name%d", i%17)),
			schema.N(float64(rng.Intn(10))),
		})
	}
	child := &schema.Table{
		Name: "c", PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "p_id", Type: schema.TypeNumber},
			{Name: "val", Type: schema.TypeNumber},
		},
	}
	for i := 0; i < rows; i++ {
		child.Rows = append(child.Rows, []schema.Value{
			schema.N(float64(i + 1)),
			schema.N(float64(1 + rng.Intn(len(parent.Rows)))),
			schema.N(float64(rng.Intn(1000))),
		})
	}
	return &schema.Database{
		Name:   "bench",
		Tables: []*schema.Table{grand, parent, child},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "c", FromColumn: "p_id", ToTable: "p", ToColumn: "id"},
			{FromTable: "p", FromColumn: "g_id", ToTable: "g", ToColumn: "id"},
		},
	}
}
