package core_test

import (
	"testing"

	"starnuma/internal/core"
)

// TestTraceReplayMatchesGenerator is the one-stream contract end to
// end: a run over SNTR files dumped from a generator must equal the run
// over the generator itself — aggregates, metrics, attribution profile
// and event trace — although the trace source skips the ingest memo.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny pipeline twice")
	}
	sys, cfg := core.StarNUMASystem(), goldenSim()
	spec := goldenSpec(t, "BFS")
	want, err := core.Run(sys, cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunSource(sys, cfg, dumpSource(t, sys, cfg, spec, cfg.PhaseInstr))
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(t, got) != resultDigest(t, want) {
		t.Fatal("trace replay diverges from the generator run")
	}
}
