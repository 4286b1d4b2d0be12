// Package selection implements PURPLE's demonstration selection
// (Algorithm 1 and Figure 8 of the paper). Given the top-k predicted
// skeletons and the four-level automaton hierarchy, it walks a 4×k
// preference matrix — levels × predictions, finest level and highest-
// probability prediction first — popping demonstrations from the top-p
// non-empty cells and growing p by the INCREASE-Generalization schedule
// until every matched demonstration is queued.
package selection

import (
	"math/rand"

	"repro/internal/automaton"
)

// Policy controls the generalization schedule of Algorithm 1.
type Policy struct {
	// P0 is the initial number of preference cells consulted per round.
	P0 int
	// Increase advances p each round (IN C R E A S E-Generalization). The
	// paper evaluates Linear-1, Linear-3 and Exp-2 (Figure 12).
	Increase func(p int) int
	// Name labels the policy in experiment output.
	Name string
}

// Linear returns a policy adding step to p each round.
func Linear(p0, step int) Policy {
	name := "Linear-1"
	if step == 3 {
		name = "Linear-3"
	}
	return Policy{P0: p0, Increase: func(p int) int { return p + step }, Name: name}
}

// Exp returns a policy multiplying p by factor each round.
func Exp(p0, factor int) Policy {
	return Policy{P0: p0, Increase: func(p int) int { return p * factor }, Name: "Exp-2"}
}

// DefaultPolicy is the paper's default: p0 = 1, increase by 1 per round,
// targeting the 4:3:2:1 expected matching ratio across abstraction levels.
func DefaultPolicy() Policy { return Linear(1, 1) }

// Options tunes selection behaviour; the zero value is the paper default.
type Options struct {
	Policy Policy
	// MaskLevels ignores the first n abstraction levels (the Figure 12
	// "masking number" noise knob); 0 uses all four levels.
	MaskLevels int
	// DropProb randomly drops one predicted skeleton with this probability
	// (the Figure 12 "Drop-y" noise knob).
	DropProb float64
	// Rng drives the noise knobs and the random fill; nil means no
	// randomness (deterministic selection, no random fill).
	Rng *rand.Rand
	// FillPool, when non-nil, supplies demonstration indexes appended in
	// random order after all matched demonstrations, so the prompt budget
	// is fully used (Section IV-C3).
	FillPool []int
}

// Select runs Algorithm 1. predSkeletons are the top-k Detail-Level token
// sequences ordered by model probability (highest first). The result is the
// demonstration indexes in preference order, deduplicated.
func Select(h *automaton.Hierarchy, predSkeletons [][]string, opts Options) []int {
	policy := opts.Policy
	if policy.Increase == nil {
		policy = DefaultPolicy()
	}
	preds := predSkeletons
	if opts.DropProb > 0 && opts.Rng != nil && len(preds) > 1 && opts.Rng.Float64() < opts.DropProb {
		drop := opts.Rng.Intn(len(preds))
		preds = append(append([][]string{}, preds[:drop]...), preds[drop+1:]...)
	}

	// Build the preference matrix I: cell order is level-major, prediction
	// rank minor (cells 1..k are Detail over top-1..top-k, then Keywords...),
	// exactly Figure 8's numbering.
	type cell struct {
		matches []int
		next    int
	}
	var cells []*cell
	for l := automaton.Detail; l <= automaton.Clause; l++ {
		if int(l) <= opts.MaskLevels {
			// Masked levels contribute empty cells.
			for range preds {
				cells = append(cells, &cell{})
			}
			continue
		}
		auto := h.Levels[l-1]
		for _, p := range preds {
			cells = append(cells, &cell{matches: auto.Match(p)})
		}
	}

	// seen is a dense set over demo indexes: FillPool spans the whole
	// demonstration pool, so a map would be probed once per pooled demo on
	// every call. mark grows it when a match index falls past FillPool.
	selected := make([]int, 0, len(opts.FillPool))
	seen := make([]bool, len(opts.FillPool))
	mark := func(d int) bool {
		if d >= len(seen) {
			seen = append(seen, make([]bool, d+1-len(seen))...)
		}
		if seen[d] {
			return false
		}
		seen[d] = true
		return true
	}
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
		// GET-TOP(I, p): the first p cells that still hold matches.
		taken := 0
		for _, c := range cells {
			if taken >= p {
				break
			}
			if c.next >= len(c.matches) {
				continue
			}
			taken++
			// POP-DEMO: next unseen demonstration from this cell.
			for c.next < len(c.matches) {
				d := c.matches[c.next]
				c.next++
				if mark(d) {
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
		perm := opts.Rng.Perm(len(opts.FillPool))
		for _, i := range perm {
			if d := opts.FillPool[i]; mark(d) {
				selected = append(selected, d)
			}
		}
	}
	return selected
}
