package workload

import (
	"sync"
	"testing"
)

// TestStreamBytesCountsCapacity pins that the memo is charged for what a
// recorded stream holds, not what it uses: recording pre-grows the
// arrays past their final length.
func TestStreamBytesCountsCapacity(t *testing.T) {
	g := mustGen(t, "SSSP", 16, 4)
	g.SetPhaseBudget(30_011)
	g.ResetPhase(0)
	s := g.Stream()
	held := int64(cap(s.Off))*4 + int64(cap(s.Gaps))*4 + int64(cap(s.Pages))*4 +
		int64(cap(s.Blocks))*2 + int64(cap(s.Writes))
	if s.Bytes() < held {
		t.Fatalf("Bytes() = %d, below the %d bytes the stream's arrays hold", s.Bytes(), held)
	}
}

// TestConcurrentResetPhaseSharesStream starts two generators of one
// spec, shape and budget on the same phase at once: the stream is
// recorded once and both bind the same copy.
func TestConcurrentResetPhaseSharesStream(t *testing.T) {
	const budget = 40_013 // used by no other test, so the stream is not yet memoised
	gens := []*Generator{mustGen(t, "BFS", 16, 4), mustGen(t, "BFS", 16, 4)}
	got := make([]*Stream, len(gens))
	gate := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(len(gens))
	done.Add(len(gens))
	for i, g := range gens {
		g.SetPhaseBudget(budget)
		go func() {
			defer done.Done()
			ready.Done()
			<-gate
			g.ResetPhase(0)
			got[i] = g.Stream()
		}()
	}
	ready.Wait()
	close(gate)
	done.Wait()
	if got[0] == nil || got[0] != got[1] {
		t.Fatalf("concurrent ResetPhase bound streams %p and %p, want one shared recording", got[0], got[1])
	}
}
