package exp

import (
	"fmt"

	"starnuma/internal/core"
	"starnuma/internal/migrate"
	"starnuma/internal/pool"
	"starnuma/internal/stats"
	"starnuma/internal/workload"
)

// ExtReplication quantifies §V-F's replication-vs-pooling discussion,
// which the paper argues qualitatively: replicating read-only vagabond
// pages can substitute for the pool, but read-write sharing makes
// software replica coherence prohibitive, and the two techniques
// compose. We run an idealized best-case replication (whole-run
// knowledge selects hot, widely-shared, read-mostly pages).
func (r *Runner) ExtReplication() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extrep",
		Title:   "Extension (§V-F): page replication vs memory pooling",
		Columns: []string{"workload", "baseline+repl", "naive repl (r/w too)", "starnuma", "starnuma+repl", "repl pages", "write stalls"},
		Notes:   "§V-F (qualitative): replication suits read-only sharing (TC) but software coherence on read-write pages (BFS, Masstree) is prohibitive; replication and pooling are complementary",
	}
	cfgR := r.opts.Sim
	cfgR.Policy = core.PolicyPerfectBaseline
	cfgR.Replication = migrate.DefaultReplicationConfig()
	cfgR.Replication.Enable = true
	// Naive replication ignores the read-only filter — the paper's
	// "prohibitive overheads" case: every store to a replicated page
	// pays the software coherence penalty.
	cfgN := cfgR
	cfgN.Replication.MaxWriteFrac = 1.0
	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyStarNUMA
	cfgB.Replication = cfgR.Replication
	replV := variant{"baseline-repl", core.BaselineSystem(), cfgR}
	naiveV := variant{"baseline-repl-naive", core.BaselineSystem(), cfgN}
	bothV := variant{"starnuma-repl", core.StarNUMASystem(), cfgB}
	if err := r.prefetch(specs, r.baselineVariant(), r.starnumaVariant(), replV, naiveV, bothV); err != nil {
		return nil, err
	}
	var vRepl, vNaive, vSN, vBoth []float64
	for _, spec := range specs {
		rb, err := r.baseline(spec)
		if err != nil {
			return nil, err
		}
		rRepl, err := r.runVariant(replV, spec)
		if err != nil {
			return nil, err
		}
		rNaive, err := r.runVariant(naiveV, spec)
		if err != nil {
			return nil, err
		}
		rs, err := r.starnuma(spec)
		if err != nil {
			return nil, err
		}
		rBoth, err := r.runVariant(bothV, spec)
		if err != nil {
			return nil, err
		}
		a, n, b, c := core.Speedup(rRepl, rb), core.Speedup(rNaive, rb),
			core.Speedup(rs, rb), core.Speedup(rBoth, rb)
		vRepl, vNaive, vSN, vBoth = append(vRepl, a), append(vNaive, n), append(vSN, b), append(vBoth, c)
		t.Rows = append(t.Rows, []string{
			spec.Name, x(a), x(n), x(b), x(c),
			fmt.Sprintf("%d", rNaive.ReplicatedPages),
			fmt.Sprintf("%d", rNaive.ReplicaWriteStalls),
		})
	}
	t.Rows = append(t.Rows, []string{"gmean",
		x(stats.GeoMean(vRepl)), x(stats.GeoMean(vNaive)),
		x(stats.GeoMean(vSN)), x(stats.GeoMean(vBoth)), "", ""})
	return t, nil
}

// Ext32Sockets evaluates §III-B's scaling argument across the paper's
// target range (8-32 sockets): at 8 sockets NUMA pressure is milder so
// the pool helps less; at 32 the pool needs an intermediate CXL switch
// (~270ns end-to-end pool access, only 25% under a 2-hop access) yet
// the bandwidth benefit remains.
func (r *Runner) Ext32Sockets() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext32",
		Title:   "Extension (§III-B): StarNUMA across system scales (8/16/32 sockets)",
		Columns: []string{"workload", "8-socket", "16-socket", "32-socket (switched)"},
		Notes:   "§III-B: with a CXL switch the latency gap to a 2-hop access shrinks, but the pool's added bandwidth for heavily shared pages remains; the design targets 8-32 sockets",
	}

	base8 := core.BaselineSystem()
	base8.Topology.Sockets = 8
	sn8 := core.StarNUMASystem()
	sn8.Topology.Sockets = 8

	base32 := core.BaselineSystem()
	base32.Topology.Sockets = 32
	sn32 := core.StarNUMASystem()
	sn32.Topology.Sockets = 32
	sn32.Pool.Latency = pool.SwitchedLatency()
	sn32.Topology.CXLOneWay = sn32.Pool.Latency.OneWay()

	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyPerfectBaseline
	cfgS := r.opts.Sim
	cfgS.Policy = core.PolicyStarNUMA
	// 8 sockets: Algorithm 1's "half the system" threshold is 4.
	cfgS8 := cfgS
	cfgS8.Migration.PoolSharerThreshold = 4
	cfgS32 := cfgS
	cfgS32.Migration.PoolSharerThreshold = 16
	b8 := variant{"baseline-8", base8, cfgB}
	s8 := variant{"starnuma-8", sn8, cfgS8}
	b32 := variant{"baseline-32", base32, cfgB}
	s32 := variant{"starnuma-32", sn32, cfgS32}
	if err := r.prefetch(specs, b8, s8, r.baselineVariant(), r.starnumaVariant(), b32, s32); err != nil {
		return nil, err
	}

	var v8, v16, v32 []float64
	for _, spec := range specs {
		rb8, err := r.runVariant(b8, spec)
		if err != nil {
			return nil, err
		}
		rs8, err := r.runVariant(s8, spec)
		if err != nil {
			return nil, err
		}

		rb16, err := r.baseline(spec)
		if err != nil {
			return nil, err
		}
		rs16, err := r.starnuma(spec)
		if err != nil {
			return nil, err
		}

		rb32, err := r.runVariant(b32, spec)
		if err != nil {
			return nil, err
		}
		rs32, err := r.runVariant(s32, spec)
		if err != nil {
			return nil, err
		}

		a, b, c := core.Speedup(rs8, rb8), core.Speedup(rs16, rb16), core.Speedup(rs32, rb32)
		v8, v16, v32 = append(v8, a), append(v16, b), append(v32, c)
		t.Rows = append(t.Rows, []string{spec.Name, x(a), x(b), x(c)})
	}
	t.Rows = append(t.Rows, []string{"gmean",
		x(stats.GeoMean(v8)), x(stats.GeoMean(v16)), x(stats.GeoMean(v32))})
	return t, nil
}

// ExtSoftwareTracking quantifies §III-D1's motivation for hardware
// tracking support: conventional OS page-poisoning sampling either
// monitors too few pages to find pool candidates fast enough (small
// samples) or drowns the workload in minor page faults (large samples).
func (r *Runner) ExtSoftwareTracking() (*Table, error) {
	specs, err := r.opts.specs()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extsw",
		Title:   "Extension (§III-D1): hardware tracking vs OS sampling",
		Columns: []string{"workload", "hardware", "sample 5%", "sample 25%", "sample 100%", "faults@100%"},
		Notes:   "§III-D1: practical software sample sizes cannot identify pool candidates at a sufficient rate; monitoring everything in software is fault-prohibitive — hence hardware support",
	}
	fracs := []float64{0.05, 0.25, 1.0}
	swVariants := make([]variant, len(fracs))
	for i, frac := range fracs {
		cfg := r.opts.Sim
		cfg.Policy = core.PolicyStarNUMA
		cfg.SoftwareTracking = core.DefaultSoftwareTracking()
		cfg.SoftwareTracking.Enable = true
		cfg.SoftwareTracking.SampleFrac = frac
		swVariants[i] = variant{fmt.Sprintf("starnuma-sw%.2f", frac), core.StarNUMASystem(), cfg}
	}
	if err := r.prefetch(specs, append([]variant{r.baselineVariant(), r.starnumaVariant()}, swVariants...)...); err != nil {
		return nil, err
	}
	var gms [][]float64 = make([][]float64, 1+len(fracs))
	for _, spec := range specs {
		rb, err := r.baseline(spec)
		if err != nil {
			return nil, err
		}
		hw, err := r.starnuma(spec)
		if err != nil {
			return nil, err
		}
		row := []string{spec.Name, x(core.Speedup(hw, rb))}
		gms[0] = append(gms[0], core.Speedup(hw, rb))
		var lastFaults uint64
		for i := range fracs {
			res, err := r.runVariant(swVariants[i], spec)
			if err != nil {
				return nil, err
			}
			row = append(row, x(core.Speedup(res, rb)))
			gms[1+i] = append(gms[1+i], core.Speedup(res, rb))
			lastFaults = res.PageFaults
		}
		row = append(row, fmt.Sprintf("%d", lastFaults))
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"gmean"}
	for _, vs := range gms {
		gm = append(gm, x(stats.GeoMean(vs)))
	}
	gm = append(gm, "")
	t.Rows = append(t.Rows, gm)
	return t, nil
}

// ExtDrift probes §V-B's stability observation from the other side: the
// paper finds sharing patterns stable enough that oracular *static*
// placement is at least as good as dynamic migration (Fig. 9). Under
// non-stationary placement affinity the ordering must flip. Widely
// shared pages are immune by construction (the pool is a good home no
// matter *which* sockets share), so the probe uses POA — the fully
// private workload — with a fraction of its pages rotating owner socket
// every phase: dynamic migration re-localises them each phase, a
// one-shot oracle cannot.
func (r *Runner) ExtDrift() (*Table, error) {
	t := &Table{
		ID:      "extdrift",
		Title:   "Extension (§V-B): dynamic migration vs static oracle under placement drift (POA)",
		Columns: []string{"drift", "dynamic migration", "static oracle", "starnuma dynamic"},
		Notes:   "Fig. 9 shows static ≥ dynamic for the paper's stable workloads; once page affinity drifts, dynamic migration wins and the oracle goes stale — quantifying when migration machinery earns its keep",
	}
	// Reference: baseline with dynamic perfect-knowledge migration.
	cfgB := r.opts.Sim
	cfgB.Policy = core.PolicyPerfectBaseline
	// Static oracle on the same architecture.
	cfgS := r.opts.Sim
	cfgS.Policy = core.PolicySpec{Name: "oracle"}
	// StarNUMA's own policy on the pool-equipped system.
	cfgD := r.opts.Sim
	cfgD.Policy = core.PolicyStarNUMA

	drifts := []float64{0, 0.25, 0.5}
	type driftRow struct {
		drift            float64
		spec             workload.Spec
		dyn, stat, starn variant
	}
	var rows []driftRow
	for _, drift := range drifts {
		spec, err := workload.ByName("POA", r.opts.Scale)
		if err != nil {
			return nil, err
		}
		spec.DriftFrac = drift
		// An epoch lasts two phases: long enough for phase-granularity
		// migration to catch up, short enough that a one-shot oracle is
		// stale most of the time.
		spec.DriftPeriod = 2
		spec.Name = fmt.Sprintf("POA-drift%.0f%%", 100*drift)
		rows = append(rows, driftRow{
			drift: drift,
			spec:  spec,
			dyn:   variant{"drift-dynamic-" + spec.Name, core.BaselineSystem(), cfgB},
			stat:  variant{"drift-static-" + spec.Name, core.BaselineSystem(), cfgS},
			starn: variant{"drift-starnuma-" + spec.Name, core.StarNUMASystem(), cfgD},
		})
	}
	for _, row := range rows {
		if err := r.prefetch([]workload.Spec{row.spec}, row.dyn, row.stat, row.starn); err != nil {
			return nil, err
		}
	}
	for _, row := range rows {
		rb, err := r.runVariant(row.dyn, row.spec)
		if err != nil {
			return nil, err
		}
		rs, err := r.runVariant(row.stat, row.spec)
		if err != nil {
			return nil, err
		}
		rd, err := r.runVariant(row.starn, row.spec)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", 100*row.drift),
			x(1.0), x(core.Speedup(rs, rb)), x(core.Speedup(rd, rb)),
		})
	}
	return t, nil
}
