package adaption

import (
	"testing"

	"repro/internal/benchfix"
	"repro/internal/sqlexec"
)

// BenchmarkConsistencyVote measures the Section IV-D2 execution-consistency
// vote over a 30-sample self-consistency list (benchfix.VoteCandidates, the
// same fixture as cmd/benchmarks' pipeline_vote). Duplicates dominate, so
// each distinct candidate is parsed, planned and executed once per vote.
// The Uncached variant resets the shared plan cache every iteration; with
// repair on the vote does not use that cache, so the two should read the
// same, and a gap between them means the vote has started to depend on it.

func BenchmarkConsistencyVote(b *testing.B) {
	db, candidates := benchfix.VoteCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Vote(db, candidates, true); !ok {
			b.Fatal("vote found no executable candidate")
		}
	}
}

func BenchmarkConsistencyVoteUncached(b *testing.B) {
	db, candidates := benchfix.VoteCandidates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlexec.Shared.Reset()
		if _, ok := Vote(db, candidates, true); !ok {
			b.Fatal("vote found no executable candidate")
		}
	}
}
