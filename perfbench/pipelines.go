package main

import (
	"fmt"
	"math"
	"sort"

	"starnuma/internal/core"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/workload"
)

// quickScale is the footprint scale of every workload: the quick suite's
// scale, so results line up with results_quick.txt.
const quickScale = 0.125

// Workload names, as passed to --workload.
const (
	wlFig8aCold   = "fig8a-cold"
	wlPolicySweep = "policy-sweep"
	wlTraceReplay = "trace-replay"
)

var workloadNames = []string{wlFig8aCold, wlPolicySweep, wlTraceReplay}

// pipeline is one workload × system × configuration run: the unit the
// bit-identity checks and digests are kept per.
type pipeline struct {
	Label string
	Sys   core.SystemConfig
	Cfg   core.SimConfig
	Spec  workload.Spec
}

// seedSpec applies the benchmark seed to a suite spec. Seed 0 keeps the
// suite's own seeds, so seed 0 reproduces results_quick.txt; any other
// seed gives every workload a different, still deterministic stream.
func seedSpec(spec workload.Spec, seed int64) workload.Spec {
	spec.Seed += uint64(seed) * 0x9E3779B97F4A7C15
	return spec
}

func specsByName(names []string, seed int64) ([]workload.Spec, error) {
	var out []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n, quickScale)
		if err != nil {
			return nil, err
		}
		out = append(out, seedSpec(s, seed))
	}
	return out, nil
}

// baselinePipeline is the paper's favoured baseline: no pool, perfect
// zero-cost page knowledge, socket-to-socket migrations only.
func baselinePipeline(spec workload.Spec) pipeline {
	cfg := core.QuickSim()
	cfg.Policy = core.PolicyPerfectBaseline
	return pipeline{"baseline/" + spec.Name, core.BaselineSystem(), cfg, spec}
}

// starnumaPipeline is StarNUMA with the T16 tracker and Algorithm 1.
func starnumaPipeline(spec workload.Spec) pipeline {
	cfg := core.QuickSim()
	cfg.Policy = core.PolicyStarNUMA
	return pipeline{"starnuma-t16/" + spec.Name, core.StarNUMASystem(), cfg, spec}
}

// pipelinesFor lists a workload's pipelines in execution order, with the
// specs they run on.
func pipelinesFor(name string, seed int64) ([]pipeline, []workload.Spec, error) {
	var names []string
	switch name {
	case wlFig8aCold:
		names = workload.Names()
	case wlPolicySweep:
		names = []string{"BFS", "TPCC"}
	case wlTraceReplay:
		names = []string{"BFS", "Masstree", "TPCC"}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	specs, err := specsByName(names, seed)
	if err != nil {
		return nil, nil, err
	}
	var ps []pipeline
	for _, spec := range specs {
		switch name {
		case wlFig8aCold:
			ps = append(ps, baselinePipeline(spec), starnumaPipeline(spec))
		case wlPolicySweep:
			ps = append(ps, baselinePipeline(spec))
			for _, d := range migrate.Policies() {
				for _, pl := range []struct {
					name string
					plan *fault.Plan
				}{{"none", nil}, {"degrade", fault.DegradePlan(4)}} {
					cfg := core.QuickSim()
					cfg.Policy = core.PolicySpec{Name: d.Name}
					cfg.Faults = pl.plan
					ps = append(ps, pipeline{"psweep-" + d.Name + "-" + pl.name + "/" + spec.Name,
						core.StarNUMASystem(), cfg, spec})
				}
			}
		case wlTraceReplay:
			none := core.QuickSim()
			none.Policy = core.PolicyNone
			ps = append(ps, baselinePipeline(spec), starnumaPipeline(spec),
				pipeline{"none/" + spec.Name, core.StarNUMASystem(), none, spec})
		}
	}
	return ps, specs, nil
}

// paperFig8a holds the paper's Fig. 8a StarNUMA-T16 speedups per
// workload (EXPERIMENTS.md), and paperFig8aGmean the published suite
// geomean. They are ChampSim-based simulated numbers at full scale.
var paperFig8a = map[string]float64{
	"SSSP": 2.17, "BFS": 1.7, "CC": 1.5, "TC": 1.63,
	"Masstree": 1.45, "TPCC": 1.3, "FMI": 1.22, "POA": 1.00,
}

const paperFig8aGmean = 1.54

// fig8aAccuracyPct is 100 − |simulated gmean − paper gmean| / paper
// gmean, in percent, over the workloads that have both a baseline and a
// fault-free StarNUMA-T16 result. The full suite is compared with the
// published 1.54 gmean; a subset with the geomean of the paper's
// per-workload values. It is reported as accuracy rather than error
// because the error is a small difference of two speedups: its value
// moves by a fifth between seeds, while the speedup it is taken from
// moves by a few percent.
func fig8aAccuracyPct(results map[string]*core.Result, specs []workload.Spec) (float64, error) {
	var simLog, paperLog float64
	n := 0
	for _, spec := range specs {
		base, star := results["baseline/"+spec.Name], results["starnuma-t16/"+spec.Name]
		if star == nil {
			star = results["psweep-starnuma-none/"+spec.Name]
		}
		if base == nil || star == nil {
			continue
		}
		sp := core.Speedup(star, base)
		if !(sp > 0) {
			return 0, fmt.Errorf("%s: speedup %v", spec.Name, sp)
		}
		simLog += math.Log(sp)
		paperLog += math.Log(paperFig8a[spec.Name])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no baseline/StarNUMA pairs")
	}
	paper := math.Exp(paperLog / float64(n))
	if n == len(paperFig8a) {
		paper = paperFig8aGmean
	}
	sim := math.Exp(simLog / float64(n))
	return 100 - 100*math.Abs(sim-paper)/paper, nil
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
