package main

import (
	"encoding/json"
	"os"
	"testing"

	"starnuma/internal/core"
)

func referencePipeline(t *testing.T, wl, label string) pipeline {
	t.Helper()
	pipes, _, err := pipelinesFor(wl, referenceSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pipes {
		if p.Label == label {
			return p
		}
	}
	t.Fatalf("%s has no pipeline %s", wl, label)
	return pipeline{}
}

func checkOne(t *testing.T, p pipeline) map[string]string {
	t.Helper()
	chk, err := newChecker(referenceSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p.Sys, p.Cfg, p.Spec)
	chk.record(p.Label, res, err)
	return chk.failed
}

// The committed digest accepts the pipeline as configured...
func TestReferenceAcceptsUnchangedConfig(t *testing.T) {
	p := referencePipeline(t, wlPolicySweep, "psweep-starnuma-none/TPCC")
	if failed := checkOne(t, p); len(failed) != 0 {
		t.Fatalf("unchanged pipeline failed: %v", failed)
	}
}

// ...and catches a one-cycle change to the per-page migration cost: the
// negative control for the bit-identity check. (A one-page cut to
// Algorithm 1's migration limit would not do: no quick-scale phase
// migrates 4095 pages, so it leaves every Result unchanged.)
func TestReferenceCatchesPerturbedConfig(t *testing.T) {
	p := referencePipeline(t, wlPolicySweep, "psweep-starnuma-none/TPCC")
	p.Cfg.MigrationCostCycles--
	if failed := checkOne(t, p); len(failed) == 0 {
		t.Fatal("MigrationCostCycles-1 went unnoticed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pipeline", Start: 0, End: 100, Parent: -1},
		{Name: "core.stepB", Start: 10, End: 50, Parent: 0},
		{Name: "workload.record", Start: 20, End: 30, Parent: 1},
		{Name: "core.stepC", Start: 50, End: 90, Parent: 0},
	}
	got := selfTimes(spans)
	want := map[string]int64{"pipeline": 20, "core.stepB": 30, "workload.record": 10, "core.stepC": 40}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}

// A round whose Result differs from the first round's fails that
// pipeline, as does a failure a round reports itself.
func TestTallyCatchesRoundDisagreement(t *testing.T) {
	var tl tally
	tl.add("round 1", 2, &roundReport{Digests: map[string]string{"a": "1", "b": "2"}}, nil)
	tl.add("round 2", 2, &roundReport{Digests: map[string]string{"a": "1", "b": "3"}}, nil)
	tl.add("round 3", 2, &roundReport{Digests: map[string]string{"a": "1", "b": "2"},
		Failed: map[string]string{"a": "IPC NaN"}}, nil)
	if tl.attempted != 6 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 6 and 2", tl.attempted, tl.failed)
	}
}

// The units printed for per-layer metrics are the ones BENCHMARK.json
// declares.
func TestLayerUnitsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if got := layerUnit(m.Name); got != m.Unit {
			t.Errorf("%s: prints unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
		}
	}
}
