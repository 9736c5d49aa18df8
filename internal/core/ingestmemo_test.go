package core

import (
	"reflect"
	"testing"

	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// plainSource hides a source's stream identity, so TraceSimulate walks
// every phase stream with no memoization. It is the reference
// implementation for the differential tests below.
type plainSource struct{ AccessSource }

func (plainSource) StreamSig() (string, bool) { return "", false }

// traceOutputs projects the fields of a TraceResult that step C and the
// reports consume, for deep comparison.
func traceOutputs(tr *TraceResult) map[string]any {
	return map[string]any{
		"checkpoints": tr.Checkpoints,
		"finalHome":   tr.FinalHome,
		"totals":      tr.Totals,
		"migrStats":   tr.MigrStats,
		"flushes":     tr.TrackerFlushes,
		"drained":     tr.DrainedPages,
		"replicated":  tr.Replicas.Pages,
	}
}

// TestIngestMemoizationIsExact runs step B for several policy variants
// over the same workload — once walking every stream (plainSource: no
// memo) and then twice through the memo — and requires byte-identical
// results. This is the cross-variant scenario the memo exists for: the
// memoized runs are parallel subtests over one stream signature, so a
// variant may restore phase ingests that another variant walked, or
// wait on that walk and apply its products.
func TestIngestMemoizationIsExact(t *testing.T) {
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	newGen := func(t *testing.T) *workload.Generator {
		g, err := workload.NewGenerator(tinySpec(t, "BFS"), topo.Sockets(), sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name    string
		policy  PolicySpec
		striped bool
	}{
		{name: "starnuma", policy: PolicyStarNUMA},
		{name: "oracle", policy: PolicySpec{Name: "oracle"}},
		{name: "none-striped", policy: PolicyNone, striped: true},
	} {
		cfg := tinySim()
		cfg.Phases = 3
		// A phase length no other test uses keeps this signature's ingest
		// memo cold until the parallel subtests fill it.
		cfg.PhaseInstr = 210_000
		cfg.Policy = tc.policy
		cfg.StripedPlacement = tc.striped
		want, err := TraceSimulate(sys, cfg, plainSource{newGen(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Twice through the memo: the first run may fill the memo
			// entries, the second is guaranteed to restore them.
			for round := 0; round < 2; round++ {
				got, err := TraceSimulate(sys, cfg, newGen(t))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(traceOutputs(got), traceOutputs(want)) {
					t.Fatalf("round %d: memoized trace result diverges from unmemoized reference", round)
				}
			}
		})
	}
}

// TestIngestMemoKeyedByTrackerShape pins that runs differing only in
// tracker shape do not share memo entries: a T0 run after a T16 run of
// the same workload must still match its own unmemoized reference.
func TestIngestMemoKeyedByTrackerShape(t *testing.T) {
	sys := StarNUMASystem()
	topo := topology.New(sys.Topology)
	newGen := func() *workload.Generator {
		g, err := workload.NewGenerator(tinySpec(t, "Masstree"), topo.Sockets(), sys.CoresPerSocket)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, cfg := range []SimConfig{
		tinySim(),
		func() SimConfig { c := tinySim(); c.Tracker = tracker.T0; return c }(),
		func() SimConfig { c := tinySim(); c.RegionPages *= 2; return c }(),
	} {
		want, err := TraceSimulate(sys, cfg, plainSource{newGen()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := TraceSimulate(sys, cfg, newGen())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traceOutputs(got), traceOutputs(want)) {
			t.Fatalf("tracker shape %v/%d: memoized result diverges from unmemoized reference",
				cfg.Tracker, cfg.RegionPages)
		}
	}
}
