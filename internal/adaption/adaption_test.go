package adaption

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/benchfix"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/schema"
	"repro/internal/spider"
	"repro/internal/sqlexec"
	"repro/internal/sqlir"
)

// fixture mirrors the paper's TV domain enough to exercise every fixer.
func fixture() *schema.Database {
	channel := &schema.Table{
		Name:       "tv_channel",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "country", Type: schema.TypeText},
			{Name: "series_name", Type: schema.TypeText},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.S("USA"), schema.S("Sky Radio")},
			{schema.N(2), schema.S("UK"), schema.S("Sky One")},
		},
	}
	cartoon := &schema.Table{
		Name:       "cartoon",
		PrimaryKey: "id",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeNumber},
			{Name: "channel_id", Type: schema.TypeNumber},
			{Name: "title", Type: schema.TypeText},
			{Name: "written_by", Type: schema.TypeText},
		},
		Rows: [][]schema.Value{
			{schema.N(1), schema.N(1), schema.S("Show A"), schema.S("Todd Casey")},
			{schema.N(2), schema.N(2), schema.S("Show B"), schema.S("Dana Flores")},
		},
	}
	return &schema.Database{
		Name:   "tv",
		Tables: []*schema.Table{channel, cartoon},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "cartoon", FromColumn: "channel_id", ToTable: "tv_channel", ToColumn: "id"},
		},
	}
}

func adapt(t *testing.T, sql string) (string, bool) {
	t.Helper()
	f := &Fixer{DB: fixture()}
	return f.Adapt(sql)
}

func TestValidSQLUnchanged(t *testing.T) {
	in := "SELECT country FROM tv_channel"
	out, ok := adapt(t, in)
	if !ok || out != in {
		t.Errorf("valid SQL perturbed: %q -> %q ok=%v", in, out, ok)
	}
}

func TestFixTableColumnMismatch(t *testing.T) {
	// title belongs to cartoon (T1), not tv_channel (T2): the Table 2 case.
	sql := "SELECT T2.title FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel_id = T2.id"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("not fixed: %q", out)
	}
	if !strings.Contains(out, "T1.title") {
		t.Errorf("qualifier not corrected: %q", out)
	}
}

func TestFixColumnAmbiguity(t *testing.T) {
	sql := "SELECT id FROM cartoon JOIN tv_channel ON channel_id = country"
	// id is ambiguous (both tables); channel_id/country unique.
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("ambiguity not fixed: %q", out)
	}
	if _, err := sqlexec.ExecSQL(fixture(), out); err != nil {
		t.Errorf("fixed SQL does not execute: %v (%q)", err, out)
	}
}

func TestFixMissingTable(t *testing.T) {
	// written_by qualified by cartoon, which is absent from FROM.
	sql := "SELECT country FROM tv_channel WHERE cartoon.written_by = 'Todd Casey'"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("missing table not fixed: %q", out)
	}
	if !strings.Contains(out, "JOIN cartoon") {
		t.Errorf("join not added: %q", out)
	}
}

func TestFixFunctionHallucination(t *testing.T) {
	sql := "SELECT CONCAT(series_name, ' ', country) FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("CONCAT not fixed: %q", out)
	}
	if strings.Contains(out, "CONCAT") {
		t.Errorf("CONCAT survived: %q", out)
	}
}

func TestFixSchemaHallucination(t *testing.T) {
	// series_names (extra s) does not exist; edit distance finds series_name.
	sql := "SELECT series_names FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("schema hallucination not fixed: %q", out)
	}
	if !strings.Contains(out, "series_name") || strings.Contains(out, "series_names") {
		t.Errorf("column not corrected: %q", out)
	}
}

func TestFixAggregationHallucination(t *testing.T) {
	sql := "SELECT COUNT(DISTINCT series_name, country) FROM tv_channel"
	out, ok := adapt(t, sql)
	if !ok {
		t.Fatalf("multi-arg aggregate not fixed: %q", out)
	}
	if !strings.Contains(out, "COUNT(DISTINCT series_name)") {
		t.Errorf("DISTINCT not preserved on first column: %q", out)
	}
}

func TestFixUnknownTable(t *testing.T) {
	sql := "SELECT country FROM tv_channels" // misspelled table
	out, ok := adapt(t, sql)
	if !ok || !strings.Contains(out, "FROM tv_channel") {
		t.Errorf("table not corrected: %q ok=%v", out, ok)
	}
}

func TestUnparseableSQLFails(t *testing.T) {
	if _, ok := adapt(t, "not really sql((("); ok {
		t.Error("garbage input reported as fixed")
	}
}

func TestAdaptBoundedAttempts(t *testing.T) {
	// A query needing several fixes still terminates.
	sql := "SELECT CONCAT(series_names, countrys) FROM tv_channels"
	out, _ := adapt(t, sql)
	if out == "" {
		t.Error("Adapt returned empty SQL")
	}
}

func TestVotePicksMajority(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT country FROM tv_channel WHERE id = 1", // minority result
		"SELECT country FROM tv_channel",              // majority (x3)
		"SELECT country FROM tv_channel",
		"SELECT country FROM tv_channel",
	}
	got, ok := Vote(db, cands, true)
	if !ok || got != "SELECT country FROM tv_channel" {
		t.Errorf("Vote = %q, ok=%v", got, ok)
	}
}

func TestVoteFixesBeforeVoting(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT CONCAT(series_name, country) FROM tv_channel", // fixable
		"SELECT series_name FROM tv_channel",
	}
	got, ok := Vote(db, cands, true)
	if !ok {
		t.Fatal("vote failed")
	}
	if _, err := sqlexec.ExecSQL(db, got); err != nil {
		t.Errorf("voted SQL does not execute: %v", err)
	}
}

func TestVoteNoFixSkipsBroken(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT CONCAT(series_name, country) FROM tv_channel", // broken, not fixed
		"SELECT series_name FROM tv_channel",
	}
	got, ok := Vote(db, cands, false)
	if !ok || got != "SELECT series_name FROM tv_channel" {
		t.Errorf("Vote(no-fix) = %q ok=%v", got, ok)
	}
}

func TestVoteAllBroken(t *testing.T) {
	if _, ok := Vote(fixture(), []string{"garbage((", "more(("}, true); ok {
		t.Error("vote over unusable candidates should fail")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"kitten", "sitting", 3}, {"abc", "abc", 0},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSignatureOrderSensitivity(t *testing.T) {
	res1, err := sqlexec.ExecSQL(fixture(), "SELECT country FROM tv_channel ORDER BY country ASC")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sqlexec.ExecSQL(fixture(), "SELECT country FROM tv_channel ORDER BY country DESC")
	if err != nil {
		t.Fatal(err)
	}
	if Signature(res1) == Signature(res2) {
		t.Error("ordered results with different orders should differ")
	}
}

// refAdapt and refVote are the two-pass vote as it stood before the
// per-candidate memo: Adapt executes every attempt on the uncached
// executor, then the vote executes the adapted SQL a second time through
// the plan cache, once per candidate including duplicates. They are the
// oracle the differential tests hold Vote and Adapt to.
func refAdapt(f *Fixer, sql string) (string, bool) {
	sel, err := sqlir.Parse(sql)
	if err != nil {
		return sql, false
	}
	for attempt := 0; attempt < MaxAttempts; attempt++ {
		if _, err := sqlexec.Exec(f.DB, sel); err == nil {
			return sqlir.String(sel), true
		} else if !f.fix(sel, err) {
			return sqlir.String(sel), false
		}
	}
	_, err = sqlexec.Exec(f.DB, sel)
	return sqlir.String(sel), err == nil
}

func refVote(db *schema.Database, candidates []string, fix bool) (string, bool) {
	f := &Fixer{DB: db}
	type entry struct{ sql, sig string }
	var entries []entry
	counts := map[string]int{}
	for _, sql := range candidates {
		fixed := sql
		if fix {
			var ok bool
			if fixed, ok = refAdapt(f, sql); !ok {
				continue
			}
		}
		res, err := sqlexec.Shared.Exec(db, fixed)
		if err != nil {
			continue
		}
		sig := Signature(res)
		entries = append(entries, entry{fixed, sig})
		counts[sig]++
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

// salt extends a candidate list with the shapes a serving pipeline also
// sees: the fault layer's schema-invalid outage completion, non-canonical
// spellings of real candidates (lower-case keywords, doubled spaces) and
// unparsable text.
func salt(cands []string) []string {
	out := append([]string{}, cands...)
	for i, c := range cands {
		if i%3 == 0 {
			out = append(out, strings.ToLower(c), strings.ReplaceAll(c, " ", "  "))
		}
	}
	out = append(out,
		"SELECT fault FROM fault_injected_outage",
		"SELECT fault FROM fault_injected_outage",
		"SELECT FROM WHERE ((",
		"",
	)
	if len(cands) > 0 {
		out = append(out, cands[0]+" garbage ((")
	}
	return out
}

// simCandidates returns, for every dev task of a small corpus, the 30
// self-consistency samples the simulated ChatGPT draws for a zero-shot
// prompt and for a prompt that carries the gold SQL as a demonstration (the
// well-guided case the pipeline aims for).
func simCandidates(t *testing.T) ([]*spider.Example, [][]string) {
	t.Helper()
	c := spider.GenerateSmall(11, 0.08)
	sim := llm.NewSim(llm.ChatGPT)
	var tasks []*spider.Example
	var lists [][]string
	for _, e := range c.Dev.Examples {
		guided := []prompt.Demo{{DB: e.DB, NL: e.NL, SQL: e.GoldSQL}}
		for _, demos := range [][]prompt.Demo{nil, guided} {
			built := prompt.Build("", demos, e.DB, e.NL, 0)
			resp := sim.Complete(llm.Request{
				Prompt: built.Text, N: 30, Task: e, SchemaInPrompt: e.DB, Seed: int64(e.ID),
			})
			tasks = append(tasks, e)
			lists = append(lists, resp.SQLs)
		}
	}
	if len(tasks) == 0 {
		t.Fatal("corpus has no dev tasks")
	}
	return tasks, lists
}

// TestVoteMatchesTwoPassReference is the correctness pin for the
// per-candidate memo: over every simulated candidate list, plain and
// salted, with and without repair, Vote returns exactly what the two-pass
// reference returns, and Adapt agrees with the reference Adapt on every
// candidate.
func TestVoteMatchesTwoPassReference(t *testing.T) {
	tasks, lists := simCandidates(t)
	votes, repaired := 0, 0
	for i, e := range tasks {
		f := &Fixer{DB: e.DB}
		for _, cands := range [][]string{lists[i], salt(lists[i])} {
			for _, fix := range []bool{true, false} {
				wantSQL, wantOK := refVote(e.DB, cands, fix)
				gotSQL, gotOK := Vote(e.DB, cands, fix)
				if gotSQL != wantSQL || gotOK != wantOK {
					t.Fatalf("task %d fix=%v: Vote = (%q, %v), reference (%q, %v)\ncandidates: %q",
						e.ID, fix, gotSQL, gotOK, wantSQL, wantOK, cands)
				}
				votes++
			}
			for _, c := range cands {
				wantSQL, wantOK := refAdapt(f, c)
				gotSQL, gotOK := f.Adapt(c)
				if gotSQL != wantSQL || gotOK != wantOK {
					t.Fatalf("task %d: Adapt(%q) = (%q, %v), reference (%q, %v)", e.ID, c, gotSQL, gotOK, wantSQL, wantOK)
				}
				if _, err := sqlexec.ExecSQL(e.DB, c); err != nil && gotOK {
					repaired++
				}
			}
		}
	}
	// The lists must exercise the repair path, or the fix=true comparison
	// only ever sees first-attempt successes.
	if repaired == 0 {
		t.Fatalf("no candidate in %d votes needed repair", votes)
	}
	t.Logf("%d votes compared, %d candidates repaired", votes, repaired)
}

// TestVoteEvaluatesEachDistinctCandidateOnce: duplicates reuse the first
// evaluation. Without repair the plan cache sees one lookup per distinct
// text, not one per candidate; with repair the candidates execute outside
// the shared cache and leave it untouched, broken ones included.
func TestVoteEvaluatesEachDistinctCandidateOnce(t *testing.T) {
	db := fixture()
	cands := []string{
		"SELECT country FROM tv_channel",
		"SELECT country FROM tv_channel",
		"select country from tv_channel", // another text, same canonical plan
		"select country from tv_channel",
		"SELECT country FROM tv_channel WHERE id = 1",
		"SELECT country FROM tv_channel",
		"SELECT nosuch FROM tv_channel", // plans, then fails at run time
		"garbage ((",
		"garbage ((",
	}
	for _, fix := range []bool{true, false} {
		before := sqlexec.Shared.Stats()
		if _, ok := Vote(db, cands, fix); !ok {
			t.Fatalf("fix=%v: vote failed", fix)
		}
		after := sqlexec.Shared.Stats()
		lookups := after.Hits + after.Misses - before.Hits - before.Misses
		want := uint64(0)
		if !fix {
			want = 5 // one per distinct text, the unparsable one included
		}
		if lookups != want {
			t.Errorf("fix=%v: %d plan-cache lookups, want %d", fix, lookups, want)
		}
	}
}

// TestAdaptReturnsCanonicalRendering: executable input keeps its meaning but
// comes back in sqlir's canonical spelling.
func TestAdaptReturnsCanonicalRendering(t *testing.T) {
	out, ok := adapt(t, "select  count(*) from tv_channel")
	if !ok || out != "SELECT COUNT(*) FROM tv_channel" {
		t.Errorf("Adapt = (%q, %v), want canonical SELECT COUNT(*) FROM tv_channel", out, ok)
	}
}

// TestVoteFixtureShape keeps benchfix.VoteCandidates' documented shape
// honest: 30 samples, 4 distinct texts, 2 of them failing as sampled.
func TestVoteFixtureShape(t *testing.T) {
	db, cands := benchfix.VoteCandidates()
	distinct := map[string]bool{}
	for _, c := range cands {
		distinct[c] = true
	}
	failing := 0
	for c := range distinct {
		if _, err := sqlexec.ExecSQL(db, c); err != nil {
			failing++
		}
	}
	if len(cands) != 30 || len(distinct) != 4 || failing != 2 {
		t.Errorf("fixture has %d samples, %d distinct, %d failing; want 30/4/2", len(cands), len(distinct), failing)
	}
}

// TestAdaptAttemptBound: a query needing MaxAttempts repairs is fixed, one
// needing a repair more is not, exactly as in the reference Adapt. Each
// misspelled column costs one schema-hallucination repair.
func TestAdaptAttemptBound(t *testing.T) {
	f := &Fixer{DB: fixture()}
	const from = " FROM cartoon AS T1 JOIN tv_channel AS T2 ON T1.channel_id = T2.id"
	cases := []struct {
		sql    string
		wantOK bool
	}{
		{"SELECT T1.titel, T1.writen_by, T2.countri, T2.serie_name, T1.chanel_id" + from, true},
		{"SELECT T1.titel, T1.writen_by, T2.countri, T2.serie_name, T1.chanel_id, T2.idd" + from, false},
	}
	for _, c := range cases {
		gotSQL, gotOK := f.Adapt(c.sql)
		wantSQL, wantOK := refAdapt(f, c.sql)
		if gotOK != c.wantOK || gotSQL != wantSQL || gotOK != wantOK {
			t.Errorf("Adapt(%q) = (%q, %v), reference (%q, %v), want ok=%v", c.sql, gotSQL, gotOK, wantSQL, wantOK, c.wantOK)
		}
	}
}

// TestVoteTieBreakMatchesReference: with tied signature counts the vote
// keeps the reference order — lexicographically first signature, then the
// first candidate carrying it — with repair on and off.
func TestVoteTieBreakMatchesReference(t *testing.T) {
	db := fixture()
	lists := [][]string{
		{
			"SELECT country FROM tv_channel WHERE id = 1",
			"SELECT country FROM tv_channel WHERE id = 2",
			"SELECT country FROM tv_channel WHERE id = 1",
			"select country from tv_channel where id = 2",
		},
		{
			"SELECT countri FROM tv_channel WHERE id = 2", // repaired to the id = 2 result
			"SELECT country FROM tv_channel WHERE id = 1",
		},
	}
	for _, cands := range lists {
		for _, fix := range []bool{true, false} {
			wantSQL, wantOK := refVote(db, cands, fix)
			gotSQL, gotOK := Vote(db, cands, fix)
			if gotSQL != wantSQL || gotOK != wantOK {
				t.Errorf("fix=%v %q: Vote = (%q, %v), reference (%q, %v)", fix, cands, gotSQL, gotOK, wantSQL, wantOK)
			}
		}
	}
}
