package workload

import (
	"fmt"
	"sync"

	"starnuma/internal/memo"
)

// This file implements phase-stream memoisation and the generator pool —
// the two allocation-side levers behind fast step-C windows.
//
// Stream memo: a core's miss stream for one phase is a pure function of
// (spec, system shape, phase) — see the determinism contract on
// Generator. Step B replays every phase once and step C replays each
// phase once per timing window, so without memoisation the same
// exponential draws, class searches and page picks are recomputed
// dozens of times. When a consumer declares its per-core instruction
// budget (SetPhaseBudget), ResetPhase records the stream once into a
// compact struct-of-arrays buffer, kept in the process-wide
// internal/memo under a streamKey, and every later replay is pure array
// reads. Recording is single-flight: generators that ask for the same
// stream at once share one recording.
//
// Generator pool: runner workers previously built a fresh Generator per
// window, re-deriving page→class and page→sharer assignments each time.
// AcquireGenerator/ReleaseGenerator recycle generators per (spec,
// shape), and ResetPhase already rebuilds any phase-dependent drift
// state, so a pooled generator is indistinguishable from a fresh one.

// Stream is one phase's recorded miss stream for every core, in
// struct-of-arrays layout: core c's accesses live at indices
// [Off[c], Off[c+1]) of the four parallel arrays. It is the one
// representation of an access stream that steps B and C read; SNTR
// trace files (internal/trace) are its persisted form. Consumers treat
// it as read-only: recorded streams are shared through the memo.
type Stream struct {
	Off    []int32
	Gaps   []uint32
	Pages  []uint32
	Blocks []uint16
	Writes []bool
}

// Bytes returns the heap bytes the stream's arrays hold. It counts
// capacity, not length: recording over-allocates, and the memo budget
// must charge what is actually resident.
func (s *Stream) Bytes() int64 {
	return int64(cap(s.Off))*4 + int64(cap(s.Gaps))*4 +
		int64(cap(s.Pages))*4 + int64(cap(s.Blocks))*2 + int64(cap(s.Writes))
}

// streamKey identifies one memoised stream. The sig string folds in the
// full Spec (seed, classes, drift), the system shape, and the recording
// budget; phase is kept separate because every phase of one workload
// shares the sig.
type streamKey struct {
	sig   string
	phase int
}

// streamSig derives the memo signature for a generator+budget. Spec is
// a plain value type (its only reference field is the Classes slice of
// scalar structs), so the %+v rendering is a faithful identity.
func streamSig(spec Spec, sockets, coresPerSocket int, budget uint64) string {
	return fmt.Sprintf("%+v|%d|%d|%d", spec, sockets, coresPerSocket, budget)
}

// SetPhaseBudget declares that every core will draw at most `budget`
// instructions worth of accesses per phase (each Access consumes Gap
// instructions; consumers stop at or before the first access that
// reaches the budget). A non-zero budget makes the next ResetPhase
// record or reuse a memoised stream, which Stream then returns. Zero
// disables recording (the default, and the step-A analysis mode).
func (g *Generator) SetPhaseBudget(budget uint64) {
	if budget == g.budget {
		return
	}
	g.budget = budget
	g.sig = ""
	if budget > 0 {
		g.sig = streamSig(g.spec, g.sockets, g.coresPerSocket, budget)
	}
	g.stream = nil
}

// loadStream returns the memoised stream for phase, recording it on a
// miss.
func (g *Generator) loadStream(phase int) *Stream {
	return memo.Get(streamKey{sig: g.sig, phase: phase}, g.recordStream)
}

// recordStream draws every core's stream for the current phase until
// the per-core cumulative gap reaches the budget. It consumes the
// per-core RNG streams; ResetPhase re-seeds them afterwards.
func (g *Generator) recordStream() *Stream {
	cores := len(g.rngs)
	s := &Stream{Off: make([]int32, cores+1)}
	for core := 0; core < cores; core++ {
		s.Off[core] = int32(len(s.Gaps))
		var cum uint64
		for cum < g.budget {
			a := g.Next(core)
			cum += uint64(a.Gap)
			s.Gaps = append(s.Gaps, a.Gap)
			s.Pages = append(s.Pages, a.Page)
			s.Blocks = append(s.Blocks, a.Block)
			s.Writes = append(s.Writes, a.Write)
		}
		if core == 0 && cores > 1 {
			// Cores draw from the same mixture, so core 0's access count
			// predicts the total well; pre-growing here avoids repeated
			// multi-MB reallocation copies as the remaining cores append.
			want := len(s.Gaps) * cores * 9 / 8
			s.Gaps = append(make([]uint32, 0, want), s.Gaps...)
			s.Pages = append(make([]uint32, 0, want), s.Pages...)
			s.Blocks = append(make([]uint16, 0, want), s.Blocks...)
			s.Writes = append(make([]bool, 0, want), s.Writes...)
		}
	}
	s.Off[cores] = int32(len(s.Gaps))
	return s
}

// Stream returns the phase stream bound by the last ResetPhase, or nil
// when no phase budget is declared.
func (g *Generator) Stream() *Stream { return g.stream }

// ReplayArrays returns the bound stream's offsets, pages and write
// flags, with ok=false unless a stream is bound and was recorded at
// exactly budget. Callers must treat the arrays as read-only.
func (g *Generator) ReplayArrays(budget uint64) (off []int32, pages []uint32, writes []bool, ok bool) {
	s := g.stream
	if s == nil || g.budget != budget {
		return nil, nil, nil, false
	}
	return s.Off, s.Pages, s.Writes, true
}

// StreamSig returns the identity of the recorded phase streams — the
// stream-memo signature folding in the Spec, the system shape and the
// recording budget — with ok=false when no phase budget is declared.
// Two generators with equal signatures replay byte-identical streams
// for every phase, which is what step B's ingest memo keys on.
func (g *Generator) StreamSig() (sig string, ok bool) {
	return g.sig, g.sig != ""
}

// generatorPools recycles Generators per (spec, shape) signature so
// runner workers stop rebuilding page/sharer assignments every window.
var generatorPools sync.Map // string -> *sync.Pool

// AcquireGenerator returns a pooled Generator for spec on the given
// shape, building one only when the pool is empty. Callers must
// ResetPhase before drawing (all consumers already do) and should hand
// the generator back with ReleaseGenerator when the window completes.
func AcquireGenerator(spec Spec, sockets, coresPerSocket int) (*Generator, error) {
	sig := streamSig(spec, sockets, coresPerSocket, 0)
	if p, ok := generatorPools.Load(sig); ok {
		if g, _ := p.(*sync.Pool).Get().(*Generator); g != nil {
			return g, nil
		}
	}
	return NewGenerator(spec, sockets, coresPerSocket)
}

// ReleaseGenerator returns g to its shape pool for reuse. The generator
// must not be used after release.
func ReleaseGenerator(g *Generator) {
	if g == nil {
		return
	}
	sig := streamSig(g.spec, g.sockets, g.coresPerSocket, 0)
	p, _ := generatorPools.LoadOrStore(sig, &sync.Pool{})
	p.(*sync.Pool).Put(g)
}
