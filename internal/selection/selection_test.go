package selection

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/sqlir"
)

func toks(sql string) []string {
	return sqlir.Skeleton(sqlir.MustParse(sql))
}

func demoSet() ([][]string, *automaton.Hierarchy) {
	demos := [][]string{
		toks("SELECT a FROM t WHERE b = 1"),                        // 0: matches pred0 at Detail
		toks("SELECT a FROM t WHERE b = 2"),                        // 1: same path as 0
		toks("SELECT a FROM t WHERE b > 3"),                        // 2: Structure-level cousin
		toks("SELECT a FROM t ORDER BY b DESC LIMIT 1"),            // 3: matches pred1 at Detail
		toks("SELECT COUNT(*) FROM t"),                             // 4: unrelated
		toks("SELECT a FROM t EXCEPT SELECT a FROM u WHERE c = 1"), // 5: unrelated
	}
	return demos, automaton.BuildHierarchy(demos)
}

func TestSelectPrefersFinestLevelTopPrediction(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{
		toks("SELECT x FROM y WHERE z = 9"),             // top-1
		toks("SELECT x FROM y ORDER BY z DESC LIMIT 5"), // top-2
	}
	got := Select(h, preds, Options{})
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("first selected should be demo 0 (Detail match of top-1), got %v", got)
	}
	// Demo 3 (Detail match of top-2) must come before Structure-level
	// cousins of top-1 appear via higher-abstraction cells... by the matrix
	// order, cell 2 (Detail/top-2) precedes cell 5+ (Keywords level).
	pos := map[int]int{}
	for i, d := range got {
		pos[d] = i
	}
	if pos[3] > pos[2] {
		t.Errorf("Detail match of top-2 (demo 3) should precede Structure cousin (demo 2): %v", got)
	}
}

func TestSelectDeduplicates(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	got := Select(h, preds, Options{})
	seen := map[int]bool{}
	for _, d := range got {
		if seen[d] {
			t.Fatalf("duplicate demo %d in %v", d, got)
		}
		seen[d] = true
	}
}

func TestSelectExhaustsAllMatches(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	got := Select(h, preds, Options{})
	// Demos 0,1 (Detail), 2 (Structure <CMP> path), 3/4/5 unmatched unless a
	// coarser level path coincides. At minimum 0,1,2 must all be present.
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, d := range got {
		delete(want, d)
	}
	if len(want) != 0 {
		t.Errorf("missing matches %v in %v", want, got)
	}
}

func TestPoliciesTerminate(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9"), toks("SELECT COUNT(*) FROM y")}
	for _, p := range []Policy{Linear(1, 1), Linear(3, 3), Exp(2, 2), Linear(9, 1)} {
		got := Select(h, preds, Options{Policy: p})
		if len(got) == 0 {
			t.Errorf("policy %s selected nothing", p.Name)
		}
	}
}

func TestMaskLevelsIgnoresFineMatches(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	// Masking Detail+Keywords: selection may only use Structure/Clause cells,
	// so the Detail-exact demos can still appear but only via coarser paths;
	// crucially Select must not panic and must return something.
	got := Select(h, preds, Options{MaskLevels: 2})
	if len(got) == 0 {
		t.Error("masked selection returned nothing; Structure level should still match")
	}
	// Masking all levels yields nothing (no cells left).
	got = Select(h, preds, Options{MaskLevels: 4})
	if len(got) != 0 {
		t.Errorf("all-masked selection should be empty, got %v", got)
	}
}

func TestDropSkeletonNoise(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{
		toks("SELECT x FROM y WHERE z = 9"),
		toks("SELECT x FROM y ORDER BY z DESC LIMIT 5"),
	}
	rng := rand.New(rand.NewSource(1))
	// With DropProb=1 one prediction is always dropped; selection still works.
	got := Select(h, preds, Options{DropProb: 1, Rng: rng})
	if len(got) == 0 {
		t.Error("drop-noise selection returned nothing")
	}
}

func TestRandomFillUsesPool(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	rng := rand.New(rand.NewSource(2))
	got := Select(h, preds, Options{Rng: rng, FillPool: []int{0, 1, 2, 3, 4, 5}})
	if len(got) != 6 {
		t.Errorf("fill should extend selection to all 6 demos, got %v", got)
	}
}

func TestDeterministicWithoutRng(t *testing.T) {
	_, h := demoSet()
	preds := [][]string{toks("SELECT x FROM y WHERE z = 9")}
	a := Select(h, preds, Options{})
	b := Select(h, preds, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("selection not deterministic: %v vs %v", a, b)
	}
}

// refSelect is Select as it stood with a map-based seen-set: the oracle
// the dense seen-set is held to.
func refSelect(h *automaton.Hierarchy, predSkeletons [][]string, opts Options) []int {
	policy := opts.Policy
	if policy.Increase == nil {
		policy = DefaultPolicy()
	}
	preds := predSkeletons
	if opts.DropProb > 0 && opts.Rng != nil && len(preds) > 1 && opts.Rng.Float64() < opts.DropProb {
		drop := opts.Rng.Intn(len(preds))
		preds = append(append([][]string{}, preds[:drop]...), preds[drop+1:]...)
	}
	type cell struct {
		matches []int
		next    int
	}
	var cells []*cell
	for l := automaton.Detail; l <= automaton.Clause; l++ {
		if int(l) <= opts.MaskLevels {
			for range preds {
				cells = append(cells, &cell{})
			}
			continue
		}
		for _, p := range preds {
			cells = append(cells, &cell{matches: h.Levels[l-1].Match(p)})
		}
	}
	selected := []int{}
	seen := map[int]bool{}
	p := policy.P0
	for {
		remaining := false
		for _, c := range cells {
			if c.next < len(c.matches) {
				remaining = true
				break
			}
		}
		if !remaining {
			break
		}
		taken := 0
		for _, c := range cells {
			if taken >= p {
				break
			}
			if c.next >= len(c.matches) {
				continue
			}
			taken++
			for c.next < len(c.matches) {
				d := c.matches[c.next]
				c.next++
				if !seen[d] {
					seen[d] = true
					selected = append(selected, d)
					break
				}
			}
		}
		p = policy.Increase(p)
		if p <= 0 {
			break
		}
	}
	if opts.FillPool != nil && opts.Rng != nil {
		for _, i := range opts.Rng.Perm(len(opts.FillPool)) {
			d := opts.FillPool[i]
			if !seen[d] {
				seen[d] = true
				selected = append(selected, d)
			}
		}
	}
	return selected
}

// TestSelectMatchesMapReference drives Select and refSelect over random
// hierarchies and options — masking, skeleton drop, nil and short fill
// pools (so match indexes fall at or past len(FillPool)), nil Rng — and
// requires the same selection and the same RNG state afterwards.
func TestSelectMatchesMapReference(t *testing.T) {
	templates := []string{
		"SELECT a FROM t WHERE b = 1",
		"SELECT a FROM t WHERE b > 3",
		"SELECT a FROM t ORDER BY b DESC LIMIT 1",
		"SELECT COUNT(*) FROM t",
		"SELECT a FROM t EXCEPT SELECT a FROM u WHERE c = 1",
		"SELECT a, COUNT(*) FROM t GROUP BY a",
		"SELECT a FROM t GROUP BY a HAVING COUNT(*) > 2",
		"SELECT T1.a FROM t AS T1 JOIN u AS T2 ON T1.id = T2.t_id WHERE T2.c = 'x'",
		"SELECT a FROM t WHERE b IN (SELECT b FROM u)",
		"SELECT AVG(a), MAX(b) FROM t WHERE c LIKE '%x%'",
	}
	policies := []Policy{{}, Linear(1, 1), Linear(3, 3), Exp(2, 2), Linear(9, 1)}
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		nDemos := r.Intn(40)
		demos := make([][]string, nDemos)
		for i := range demos {
			demos[i] = toks(templates[r.Intn(len(templates))])
		}
		h := automaton.BuildHierarchy(demos)
		preds := make([][]string, 1+r.Intn(4))
		for i := range preds {
			preds[i] = toks(templates[r.Intn(len(templates))])
		}
		var fill []int
		switch r.Intn(4) {
		case 0: // nil: every match index is past the empty pool
		case 1: // the whole pool
			for i := 0; i < nDemos; i++ {
				fill = append(fill, i)
			}
		case 2: // a short prefix: later matches fall past len(FillPool)
			for i := 0; i < nDemos/3; i++ {
				fill = append(fill, i)
			}
		case 3: // duplicates and indexes past the demo count
			for i := 0; i < nDemos; i++ {
				fill = append(fill, r.Intn(nDemos+5))
			}
		}
		got := Options{
			Policy:     policies[r.Intn(len(policies))],
			MaskLevels: r.Intn(5),
			DropProb:   []float64{0, 0.5, 1}[r.Intn(3)],
			FillPool:   fill,
		}
		want := got
		withRng := r.Intn(4) != 0
		if withRng {
			seed := r.Int63()
			got.Rng = rand.New(rand.NewSource(seed))
			want.Rng = rand.New(rand.NewSource(seed))
		}
		gotSel := Select(h, preds, got)
		wantSel := refSelect(h, preds, want)
		if !reflect.DeepEqual(gotSel, wantSel) {
			t.Fatalf("iter %d: Select = %v, reference %v (opts %+v)", iter, gotSel, wantSel, want)
		}
		if withRng {
			if g, w := got.Rng.Int63(), want.Rng.Int63(); g != w {
				t.Fatalf("iter %d: RNG state diverged after Select: next Int63 %d vs %d", iter, g, w)
			}
		}
	}
}
