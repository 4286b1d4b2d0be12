// Package adaption implements PURPLE's database-adaption module
// (Section IV-D): heuristic repair of the six LLM hallucination classes of
// Table 2, applied only to SQL that fails execution (so valid SQL is never
// perturbed), plus the execution-consistency vote that picks the final
// translation from n sampled candidates.
package adaption

import (
	"errors"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// MaxAttempts bounds repair iterations per query (the paper repairs up to
// five times).
const MaxAttempts = 5

// Fixer repairs SQL against one database.
type Fixer struct {
	DB *schema.Database
}

// Adapt repairs a SQL string until it executes or attempts are exhausted.
// It returns the SQL in canonical rendering (sqlir.String of the parsed
// query) and whether it now executes. Input that already executes keeps its
// meaning — the no-side-effect guarantee — though its spelling may change:
// "select count(*) from t" comes back as "SELECT COUNT(*) FROM t".
// Unparsable input is returned as given.
func (f *Fixer) Adapt(sql string) (string, bool) {
	fixed, res := f.adapt(sql)
	return fixed, res != nil
}

// adapt is Adapt plus the result of the execution that succeeded (nil when
// none did), so the vote can sign a candidate without executing it again.
// Every attempt executes the parsed AST directly, outside sqlexec.Shared: a
// sampled candidate that fails at run time would otherwise hold a cache
// entry it never uses, and the vote's stream of distinct candidates would
// evict the plans the repeat-execution call sites reuse.
func (f *Fixer) adapt(sql string) (string, *sqlexec.Result) {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return sql, nil
	}
	for attempt := 0; ; attempt++ {
		res, err := sqlexec.Exec(f.DB, sel)
		if err == nil {
			return sqlir.String(sel), res
		}
		if attempt == MaxAttempts || !f.fix(sel, err) {
			return sqlir.String(sel), nil
		}
	}
}

// fix applies one repair for the classified error; it reports whether any
// change was made (no change means the error is not repairable).
func (f *Fixer) fix(sel *sqlir.Select, execErr error) bool {
	switch {
	case errors.Is(execErr, sqlexec.ErrUnknownFunction):
		return f.fixFunctionHallucination(sel)
	case errors.Is(execErr, sqlexec.ErrAggArity):
		return f.fixAggregationHallucination(sel)
	case errors.Is(execErr, sqlexec.ErrAmbiguousColumn):
		return f.fixAmbiguity(sel, execErr)
	case errors.Is(execErr, sqlexec.ErrUnknownColumn):
		return f.fixUnknownColumn(sel, execErr)
	case errors.Is(execErr, sqlexec.ErrUnknownTable):
		return f.fixUnknownTable(sel)
	}
	return false
}

// fixFunctionHallucination drops unsupported function calls, keeping the
// first column argument (the paper's immediate solution for CONCAT et al.).
func (f *Fixer) fixFunctionHallucination(sel *sqlir.Select) bool {
	changed := false
	var fixSel func(*sqlir.Select)
	fixSel = func(s *sqlir.Select) {
		for i, it := range s.Items {
			if a, ok := it.Expr.(*sqlir.Agg); ok && !sqlir.AggFuncs[a.Fn] {
				s.Items[i].Expr = firstColumnArg(a)
				changed = true
			}
		}
		sqlir.WalkSelects(s, func(sub *sqlir.Select) {
			if sub == s {
				return
			}
			for i, it := range sub.Items {
				if a, ok := it.Expr.(*sqlir.Agg); ok && !sqlir.AggFuncs[a.Fn] {
					sub.Items[i].Expr = firstColumnArg(a)
					changed = true
				}
			}
		})
	}
	fixSel(sel)
	return changed
}

func firstColumnArg(a *sqlir.Agg) sqlir.Expr {
	for _, arg := range a.Args {
		if c, ok := arg.(*sqlir.ColumnRef); ok {
			return c
		}
	}
	if len(a.Args) > 0 {
		return a.Args[0]
	}
	return &sqlir.Star{}
}

// fixAggregationHallucination truncates multi-argument aggregates to their
// first argument, preserving DISTINCT (the paper splits the COUNT; keeping
// the first distinct column preserves the dominant semantics).
func (f *Fixer) fixAggregationHallucination(sel *sqlir.Select) bool {
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		sqlir.WalkExprs(s, func(e sqlir.Expr) {
			if a, ok := e.(*sqlir.Agg); ok && sqlir.AggFuncs[a.Fn] && len(a.Args) > 1 {
				a.Args = a.Args[:1]
				changed = true
			}
		})
	})
	return changed
}

// fixAmbiguity qualifies the ambiguous column with the first FROM table that
// has it (the paper assigns it to one of its potential tables).
func (f *Fixer) fixAmbiguity(sel *sqlir.Select, execErr error) bool {
	name := trailingName(execErr.Error())
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		if changed {
			return
		}
		froms := fromTables(s)
		for _, tn := range froms {
			t := f.DB.Table(tn.table)
			if t == nil || !t.HasColumn(name) {
				continue
			}
			sqlir.WalkExprs(s, func(e sqlir.Expr) {
				if c, ok := e.(*sqlir.ColumnRef); ok && c.Table == "" && strings.EqualFold(c.Column, name) {
					c.Table = tn.ref
					changed = true
				}
			})
			if changed {
				return
			}
		}
	})
	return changed
}

type fromEntry struct {
	ref   string // name used in the query (alias or table)
	table string // underlying table
}

func fromTables(s *sqlir.Select) []fromEntry {
	out := []fromEntry{{s.From.Base.Name(), s.From.Base.Table}}
	for _, j := range s.From.Joins {
		out = append(out, fromEntry{j.Table.Name(), j.Table.Table})
	}
	return out
}

// fixUnknownColumn handles three of the paper's classes in order:
// Table-Column-Mismatch (column exists under another FROM table),
// Missing-Table (the qualifier names a real table absent from FROM), and
// Schema-Hallucination (replace with the minimum-edit-distance column).
func (f *Fixer) fixUnknownColumn(sel *sqlir.Select, execErr error) bool {
	full := trailingName(execErr.Error())
	qual, colName := "", full
	if i := strings.IndexByte(full, '.'); i >= 0 {
		qual, colName = full[:i], full[i+1:]
	}
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		if changed {
			return
		}
		froms := fromTables(s)
		refMatches := func(c *sqlir.ColumnRef) bool {
			if !strings.EqualFold(c.Column, colName) {
				return false
			}
			if qual == "" {
				return c.Table == ""
			}
			return strings.EqualFold(c.Table, qual)
		}
		// (1) Table-Column-Mismatch: another FROM table has this column.
		for _, fe := range froms {
			t := f.DB.Table(fe.table)
			if t != nil && t.HasColumn(colName) {
				forEachRef(s, func(c *sqlir.ColumnRef) {
					if refMatches(c) {
						c.Table = fe.ref
						changed = true
					}
				})
				if changed {
					return
				}
			}
		}
		// (2) Missing-Table: qualifier names a real table not in FROM; join
		// it in through a foreign key with any FROM table.
		if qual != "" {
			if missing := f.DB.Table(qual); missing != nil && missing.HasColumn(colName) {
				for _, fe := range froms {
					if fk, ok := f.DB.FKBetween(fe.table, missing.Name); ok {
						var left, right *sqlir.ColumnRef
						if strings.EqualFold(fk.FromTable, fe.table) {
							left = &sqlir.ColumnRef{Table: fe.ref, Column: fk.FromColumn}
							right = &sqlir.ColumnRef{Table: missing.Name, Column: fk.ToColumn}
						} else {
							left = &sqlir.ColumnRef{Table: fe.ref, Column: fk.ToColumn}
							right = &sqlir.ColumnRef{Table: missing.Name, Column: fk.FromColumn}
						}
						s.From.Joins = append(s.From.Joins, sqlir.Join{
							Table: sqlir.TableRef{Table: missing.Name},
							Left:  left, Right: right,
						})
						changed = true
						return
					}
				}
			}
		}
		// (3) Schema-Hallucination: minimum string edit distance over the
		// columns of the FROM tables.
		best, bestDist := "", 1<<30
		bestRef := ""
		for _, fe := range froms {
			t := f.DB.Table(fe.table)
			if t == nil {
				continue
			}
			for _, c := range t.Columns {
				if d := editDistance(strings.ToLower(colName), strings.ToLower(c.Name)); d < bestDist {
					best, bestDist, bestRef = c.Name, d, fe.ref
				}
			}
		}
		if best != "" {
			forEachRef(s, func(c *sqlir.ColumnRef) {
				if refMatches(c) {
					c.Column = best
					if qual != "" {
						c.Table = bestRef
					}
					changed = true
				}
			})
		}
	})
	return changed
}

// fixUnknownTable replaces unknown table names by minimum edit distance.
func (f *Fixer) fixUnknownTable(sel *sqlir.Select) bool {
	changed := false
	sqlir.WalkSelects(sel, func(s *sqlir.Select) {
		fixRef := func(tr *sqlir.TableRef) {
			if f.DB.Table(tr.Table) != nil {
				return
			}
			best, bestDist := "", 1<<30
			for _, t := range f.DB.Tables {
				if d := editDistance(strings.ToLower(tr.Table), strings.ToLower(t.Name)); d < bestDist {
					best, bestDist = t.Name, d
				}
			}
			if best != "" {
				tr.Table = best
				changed = true
			}
		}
		fixRef(&s.From.Base)
		for i := range s.From.Joins {
			fixRef(&s.From.Joins[i].Table)
		}
	})
	return changed
}

func forEachRef(s *sqlir.Select, fn func(*sqlir.ColumnRef)) {
	sqlir.WalkExprs(s, func(e sqlir.Expr) {
		if c, ok := e.(*sqlir.ColumnRef); ok {
			fn(c)
		}
	})
	for _, j := range s.From.Joins {
		fn(j.Left)
		fn(j.Right)
	}
}

// trailingName extracts the item name from "no such column: X" style errors.
func trailingName(msg string) string {
	if i := strings.LastIndex(msg, ": "); i >= 0 {
		return msg[i+2:]
	}
	return msg
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func minInt(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Vote applies execution-consistency (Section IV-D2): each candidate is
// adapted (when fix is true), executed, and the first SQL whose execution
// result agrees with the majority result signature is returned. ok is false
// when no candidate executes.
//
// Self-consistency sampling yields few distinct candidates (about four in
// thirty on Spider dev), so each distinct candidate text is evaluated once
// per vote and its outcome reused for every duplicate; with fix the
// signature comes from the execution that made Adapt succeed. Without fix
// a candidate executes through the shared plan cache, as the baselines
// always have.
func Vote(db *schema.Database, candidates []string, fix bool) (string, bool) {
	f := &Fixer{DB: db}
	type outcome struct {
		sql string
		sig string
		ok  bool
	}
	memo := map[string]outcome{}
	var entries []outcome
	counts := map[string]int{}
	for _, sql := range candidates {
		o, seen := memo[sql]
		if !seen {
			o = outcome{sql: sql}
			var res *sqlexec.Result
			if fix {
				o.sql, res = f.adapt(sql)
			} else if r, err := sqlexec.Shared.Exec(db, sql); err == nil {
				res = r
			}
			if res != nil {
				o.sig, o.ok = Signature(res), true
			}
			memo[sql] = o
		}
		if !o.ok {
			continue
		}
		entries = append(entries, o)
		counts[o.sig]++
	}
	if len(entries) == 0 {
		return "", false
	}
	bestSig, bestCount := "", -1
	var sigs []string
	for s := range counts {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		if counts[s] > bestCount {
			bestSig, bestCount = s, counts[s]
		}
	}
	for _, e := range entries {
		if e.sig == bestSig {
			return e.sql, true
		}
	}
	return entries[0].sql, true
}

// Signature canonically encodes an execution result for consensus voting:
// rows sorted unless the query ordered them (sqlexec's one canonical
// result encoding).
func Signature(res *sqlexec.Result) string {
	return strings.Join(res.Canonical(), "\x1e")
}
