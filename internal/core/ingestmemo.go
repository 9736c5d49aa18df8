package core

import (
	"starnuma/internal/migrate"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// Step-B ingest memoization.
//
// Experiment sweeps run TraceSimulate once per variant — per migration
// policy, fault plan, or system knob — over the same recorded phase
// streams. The ingest products of one phase are variant-independent:
//
//   - The tracker and the per-phase PageCounts are reset before every
//     ingest, so their end-of-phase contents are a pure function of the
//     stream, the tracker shape, and the core→socket map — all folded
//     into the stream signature and the key fields below. Even the
//     tracker's cumulative record/flush counters are variant-independent,
//     because the number of Record calls per phase is fixed by the
//     stream.
//   - First-touch assignments only fire on Unassigned pages, and no
//     policy action can un-assign a page (migrations and drains move
//     pages the tracker saw, which are by definition already touched),
//     so the set of pages first-touched in phase k — and the socket each
//     lands on — is the same for every variant.
//
// The memo therefore captures, per (stream, phase, tracker shape,
// placement mode): the tracker and counts snapshots plus the first-touch
// (page, home) list, kept in the process-wide internal/memo under an
// ingestKey. The caller whose fill walks the stream has its products
// already; every other caller — a later hit, or one that waited on that
// fill — replays all three by array copy instead of re-walking ~10^6
// recorded accesses. The software-sampling path is excluded — the
// Sampler's per-phase fault set feeds step C's timing and is cheaper to
// recompute than to snapshot coherently.

// ingestKey identifies one memoized phase ingest. sig is the workload
// stream signature (spec, system shape, per-core budget — see
// workload.Generator.StreamSig); the remaining fields pin the tracker
// shape and the initial-placement mode, which change the ingest products
// for the same stream.
type ingestKey struct {
	sig         string
	phase       int
	kind        tracker.Kind
	regionPages int
	striped     bool
}

type ingestEntry struct {
	tbl *tracker.TableState
	pc  *migrate.PageCountsState
	// The phase's first-touch assignments, in stream order. Empty under
	// striped placement (nothing is ever Unassigned).
	firstPages []uint32
	firstHomes []topology.NodeID
}

// Bytes returns the entry's heap footprint for the memo budget; the
// append-grown first-touch lists count their capacity.
func (e *ingestEntry) Bytes() int64 {
	return e.tbl.Bytes() + e.pc.Bytes() +
		int64(cap(e.firstPages))*4 + int64(cap(e.firstHomes))*8
}
