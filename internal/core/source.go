package core

import "starnuma/internal/workload"

// AccessSource supplies the recorded per-core LLC-miss streams steps B
// and C replay, one workload.Stream per phase. workload.Generator
// records them from the synthetic model; trace.Source decodes them from
// step-A trace files (§IV-A1).
type AccessSource interface {
	// SetPhaseBudget declares the per-core instruction budget of a
	// phase: every core's stream runs until its gaps reach budget.
	SetPhaseBudget(budget uint64)
	// ResetPhase binds the stream of phase. Sources must be
	// deterministic: identical (phase, budget) yields an identical
	// stream, since steps B and C replay the same phases independently.
	ResetPhase(phase int)
	// Stream returns the stream bound by the last ResetPhase. It is
	// read-only: streams may be shared between consumers.
	Stream() *workload.Stream
	// StreamSig identifies the streams for step B's ingest memo: equal
	// signatures promise identical streams for every phase. ok=false
	// keeps the source out of the memo.
	StreamSig() (sig string, ok bool)
	// NumPages is the footprint size in 4KB pages.
	NumPages() int
	// NumCores is the total core count.
	NumCores() int
	// SocketOf maps a core index to its socket.
	SocketOf(core int) int
	// Spec carries the workload's timing parameters (zero-load IPC
	// derivation, MLP, MPKI).
	Spec() workload.Spec
}

// compile-time check: the synthetic generator is an AccessSource.
var _ AccessSource = (*workload.Generator)(nil)
