package core

import (
	"fmt"
	"strconv"

	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/memo"
	"starnuma/internal/metrics"
	"starnuma/internal/migrate"
	"starnuma/internal/sim"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
)

// Checkpoint is the output of step B for one phase: the page map at
// phase start plus the migrations that occur during the phase (§IV-A2).
type Checkpoint struct {
	Phase      int
	PageHome   []topology.NodeID // placement at phase start
	Migrations []migrate.Migration
}

// TraceResult bundles step B's outputs.
type TraceResult struct {
	Checkpoints []Checkpoint
	// Replicas is the replica set — selected by the §V-F study or by a
	// replicating policy — with the config it was selected under, whose
	// write penalty step C charges. Pages is nil when neither applies.
	Replicas migrate.Replicas
	// FinalHome is the placement after the last phase's decisions.
	FinalHome []topology.NodeID
	// Totals aggregates whole-run per-page access counts (oracle input,
	// Fig. 2/13 style analyses).
	Totals *migrate.PageCounts
	// MigrStats summarises the policy's decisions (Table IV).
	MigrStats migrate.Stats
	// TrackerFlushes is the metadata write traffic the tracker generated.
	TrackerFlushes uint64
	// DrainedPages counts pages evacuated from the pool in reaction to
	// fault-plan channel/device failures (graceful degradation).
	DrainedPages uint64
	// Metrics is step B's instrumentation snapshot (per-phase migration
	// decision series, pool residency); nil unless
	// SimConfig.CollectMetrics.
	Metrics *metrics.Snapshot
	// Trace is step B's event buffer — phase spans, migration/drain
	// decisions — on the phase-index clock (Ts = phase number);
	// Plan.Assemble translates it onto the timing windows' timeline.
	// nil unless SimConfig.Trace.
	Trace *evtrace.Buffer
}

// ingestPhase replays one phase's recorded stream into the first-touch
// map, the tracker (or its software-sampling front), and the per-page
// counts. Cores are interleaved round-robin at miss granularity, which
// approximates global instruction-count ordering well enough for
// first-touch purposes. Hardware-tracker ingests over identifiable
// streams are memoized across variants (see ingestmemo.go): the caller
// that fills the memo entry walks the stream, and every other caller
// for the same (stream, phase, tracker shape) restores the recorded
// products by array copy instead of re-walking the stream.
func ingestPhase(gen AccessSource, phase int, striped bool,
	home []topology.NodeID, sampler *tracker.Sampler, tbl *tracker.Table,
	counts *migrate.PageCounts) {
	sig, memoable := gen.StreamSig()
	memoable = memoable && sampler == nil
	walked := false
	walk := func() *ingestEntry {
		walked = true
		e := &ingestEntry{}
		gen.ResetPhase(phase)
		s := gen.Stream()
		cores := gen.NumCores()
		socketOf := make([]int, cores)
		cur := make([]int32, cores)
		active := 0
		for c := 0; c < cores; c++ {
			socketOf[c] = gen.SocketOf(c)
			cur[c] = s.Off[c]
			if cur[c] < s.Off[c+1] {
				active++
			}
		}
		// A core's stream ends exactly where its budget is crossed, so
		// cursor exhaustion is the per-core finish condition.
		for active > 0 {
			for c := 0; c < cores; c++ {
				i := cur[c]
				if i >= s.Off[c+1] {
					continue
				}
				cur[c] = i + 1
				if i+1 >= s.Off[c+1] {
					active--
				}
				p := s.Pages[i]
				sk := socketOf[c]
				if home[p] == Unassigned {
					home[p] = topology.NodeID(sk) // first touch
					if memoable {
						e.firstPages = append(e.firstPages, p)
						e.firstHomes = append(e.firstHomes, topology.NodeID(sk))
					}
				}
				if sampler != nil {
					sampler.Record(sk, p)
				} else {
					tbl.Record(sk, p)
				}
				counts.Record(sk, p)
				if s.Writes[i] {
					counts.RecordWrite(p)
				}
			}
		}
		if memoable {
			e.tbl, e.pc = tbl.SaveState(), counts.SaveState()
		}
		return e
	}
	if !memoable {
		walk()
		return
	}
	e := memo.Get(ingestKey{sig: sig, phase: phase, kind: tbl.Kind(),
		regionPages: tbl.RegionPages(), striped: striped}, walk)
	if walked {
		return
	}
	for i, p := range e.firstPages {
		if home[p] == Unassigned {
			home[p] = e.firstHomes[i]
		}
	}
	tbl.LoadState(e.tbl)
	counts.LoadState(e.pc)
}

// TraceSimulate runs step B: per-phase migration decisions over the full
// workload trace, producing one checkpoint per phase.
func TraceSimulate(sys SystemConfig, cfg SimConfig, gen AccessSource) (*TraceResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(sys.Topology)
	sockets := topo.Sockets()
	pages := gen.NumPages()
	// Step C's windows replay the same phase streams at this budget.
	gen.SetPhaseBudget(cfg.PhaseInstr)

	home := make([]topology.NodeID, pages)
	for i := range home {
		if cfg.StripedPlacement {
			home[i] = topology.NodeID(i % sockets)
		} else {
			home[i] = Unassigned
		}
	}

	tbl := tracker.NewTable(cfg.Tracker, pages, cfg.RegionPages)
	var sampler *tracker.Sampler
	if cfg.SoftwareTracking.Enable {
		sampler = tracker.NewSampler(tbl, cfg.SoftwareTracking.SampleFrac, gen.Spec().Seed)
	}
	counts := migrate.NewPageCounts(pages, sockets)
	totals := migrate.NewPageCounts(pages, sockets)

	st := &migrate.State{
		PageHome: home,
		Tracker:  tbl,
		Counts:   counts,
		Sockets:  sockets,
		HasPool:  topo.HasPool(),
		PoolNode: topo.PoolNode(),
	}
	if topo.HasPool() {
		st.PoolCapacityPages = sys.Pool.CapacityPages(pages)
	}

	sched := fault.NewSchedule(cfg.Faults)
	spec := gen.Spec()
	// The workload's expected access rate: mean region accesses per
	// phase, Config.AutoScale's input for zero-threshold configs.
	phaseAccesses := float64(gen.NumCores()) * float64(cfg.PhaseInstr) * spec.MPKI / 1000

	// The policy observes the world through its environment: static
	// system shape, the previous phase's placement feedback, and the
	// fault schedule's link-health outlook.
	var lastFB migrate.PhaseFeedback
	env := migrate.PolicyEnv{
		Sockets:                    sockets,
		HasPool:                    topo.HasPool(),
		PoolNode:                   topo.PoolNode(),
		PoolCapacityPages:          st.PoolCapacityPages,
		Pages:                      pages,
		NumRegions:                 tbl.NumRegions(),
		RegionPages:                tbl.RegionPages(),
		TrackerKind:                tbl.Kind(),
		MeanRegionAccessesPerPhase: phaseAccesses / float64(tbl.NumRegions()),
		WorkloadSeed:               int64(spec.Seed),
		BaseMigration:              cfg.Migration,
		Link: func(phase int) migrate.LinkHealth {
			return linkHealth(sched, sys, topo, phase)
		},
		Feedback: func() migrate.PhaseFeedback { return lastFB },
	}
	policyName := cfg.Policy.CanonicalName()
	policy, err := migrate.NewPolicy(policyName, cfg.Policy.Params, env)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, ok := policy.(migrate.Replicator); ok && cfg.Replication.Enable {
		return nil, fmt.Errorf("core: Replication.Enable (the §V-F study) conflicts with policy %q, which selects its own replica set", policyName)
	}

	res := &TraceResult{Totals: totals}
	var reg *metrics.Registry
	if cfg.CollectMetrics {
		reg = metrics.New()
	}
	if cfg.Trace {
		res.Trace = evtrace.NewBuffer()
		st.Trace = res.Trace
	}

	// Checkpoint 0: nothing placed yet, no in-flight migrations; pages
	// are first-touched during the phase itself.
	snap0 := make([]topology.NodeID, pages)
	copy(snap0, home)
	res.Checkpoints = append(res.Checkpoints, Checkpoint{Phase: 0, PageHome: snap0})

	for phase := 0; phase < cfg.Phases; phase++ {
		counts.Reset()
		if sampler != nil {
			sampler.ResetPhase(phase)
		} else {
			tbl.Reset()
		}
		ingestPhase(gen, phase, cfg.StripedPlacement, home, sampler, tbl, counts)
		counts.AddInto(totals)
		lastFB = migrate.ComputeFeedback(phase, counts, home, topo.HasPool(), topo.PoolNode())
		if reg != nil {
			reg.Point("migrate/policy/"+policyName+"/remote_frac", int64(phase), lastFB.RemoteFrac)
			reg.Point("migrate/policy/"+policyName+"/pool_frac", int64(phase), lastFB.PoolFrac)
		}
		if res.Trace != nil {
			// One span per trace phase on the phase-index clock: tick
			// `phase` to tick `phase+1` (a Dur of 1 tick).
			res.Trace.Span("phase", "phase "+strconv.Itoa(phase), "stepB", sim.Time(phase), 1)
		}

		if phase+1 >= cfg.Phases {
			break // no decision needed after the final phase
		}
		// Decisions made now are modeled during phase+1's timing window,
		// so their events anchor at that window's start.
		st.BeginTracePhase(sim.Time(phase + 1))
		// Snapshot the end-of-phase placement, then let the policy decide
		// the migrations that will occur *during* the next phase (§IV-A2:
		// "the N-th checkpoint indicates the set of migrations that must
		// be modeled during phase P_N's simulation"). Decide mutates
		// `home` so subsequent trace phases see the post-migration state.
		snap := make([]topology.NodeID, pages)
		copy(snap, home)
		// Fault reaction precedes the policy: recompute the pool's
		// degraded capacity for the upcoming phase, drain the overflow
		// (everything, when the device dies), and only then let the
		// policy decide — with HasPool off when no capacity remains, so
		// it degenerates to socket-only StarNUMA-Halt behaviour.
		var drained []migrate.Migration
		if topo.HasPool() && sched != nil {
			ps := sched.Pool(phase+1, sys.Pool.Channels)
			capPages := sys.Pool.DegradedCapacityPages(pages, ps)
			st.HasPool = true
			drained = migrate.DrainPool(st, capPages)
			st.PoolCapacityPages = capPages
			st.HasPool = capPages > 0
			res.DrainedPages += uint64(len(drained))
			if reg != nil {
				reg.Point("fault/drained_pages", int64(phase), float64(len(drained)))
			}
		}
		before := policy.Stats()
		pending := policy.Decide(phase, st)
		if len(drained) > 0 {
			// Drains go first so the timing window models the drain
			// traffic within its migration share.
			pending = append(drained, pending...)
		}
		if res.Trace != nil {
			after := policy.Stats()
			res.Trace.InstantArgs("migrate", "decide", "stepB/decide", sim.Time(phase+1),
				evtrace.Arg{Key: "migrations", Val: strconv.Itoa(len(pending))},
				evtrace.Arg{Key: "drained", Val: strconv.Itoa(len(drained))},
				evtrace.Arg{Key: "pingpong_skips", Val: strconv.FormatUint(after.PingPongSkips-before.PingPongSkips, 10)})
		}
		if reg != nil {
			after := policy.Stats()
			t := int64(phase)
			reg.Point("migrate/migrations", t, float64(len(pending)))
			reg.Point("migrate/policy/"+policyName+"/migrations", t, float64(len(pending)))
			reg.Point("migrate/pingpong_skips", t, float64(after.PingPongSkips-before.PingPongSkips))
			reg.Point("migrate/evictions", t, float64(after.Evictions-before.Evictions))
			if topo.HasPool() {
				resident := 0
				for _, h := range home {
					if h == topo.PoolNode() {
						resident++
					}
				}
				reg.Point("pool/resident_pages", t, float64(resident))
			}
		}
		res.Checkpoints = append(res.Checkpoints, Checkpoint{
			Phase:      phase + 1,
			PageHome:   snap,
			Migrations: pending,
		})
	}

	res.FinalHome = home
	// A post-placing policy (the zero-cost oracle) replaces every
	// checkpoint's placement with its whole-run computation and drops the
	// dynamic migrations — §V-B's static placement studies as a policy.
	if pp, ok := policy.(migrate.PostPlacer); ok {
		placement := pp.PostPlace(totals)
		for i := range res.Checkpoints {
			res.Checkpoints[i].PageHome = placement
			res.Checkpoints[i].Migrations = nil
		}
		res.FinalHome = placement
	}
	if cfg.Replication.Enable {
		res.Replicas = migrate.Replicas{Pages: migrate.ReplicationSet(totals, cfg.Replication), Config: cfg.Replication}
	} else if rp, ok := policy.(migrate.Replicator); ok {
		res.Replicas = rp.Replicas()
	}
	res.TrackerFlushes = tbl.Flushes()
	res.MigrStats = policy.Stats()
	if reg != nil {
		reg.Add("tracker/flushes", res.TrackerFlushes)
		reg.Add("migrate/pages_to_pool", res.MigrStats.PagesToPool)
		reg.Add("migrate/pages_to_socket", res.MigrStats.PagesToSocket)
		reg.Add("migrate/pingpong_skips", res.MigrStats.PingPongSkips)
		reg.Add("migrate/evictions", res.MigrStats.Evictions)
		reg.Add("migrate/policy/"+policyName+"/pages_to_pool", res.MigrStats.PagesToPool)
		reg.Add("migrate/policy/"+policyName+"/pages_to_socket", res.MigrStats.PagesToSocket)
		reg.Add("migrate/policy/"+policyName+"/evictions", res.MigrStats.Evictions)
		reg.Add("migrate/policy/"+policyName+"/pingpong_skips", res.MigrStats.PingPongSkips)
		reg.Add("migrate/policy/"+policyName+"/link_backoff_phases", res.MigrStats.LinkBackoffPhases)
		if res.Replicas.Pages != nil {
			n := uint64(0)
			for _, r := range res.Replicas.Pages {
				if r {
					n++
				}
			}
			reg.Add("migrate/policy/"+policyName+"/replicated_pages", n)
		}
		if sched != nil {
			reg.Add("fault/drained_pages", res.DrainedPages)
		}
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// linkHealth summarises the fault outlook for the policy-relevant link
// class during one phase — the pool's CXL path when a pool exists, the
// socket interconnect otherwise. This is the PolicyEnv.Link signal
// bandwidth-aware policies consult before committing pool placements.
func linkHealth(sched *fault.Schedule, sys SystemConfig, topo *topology.Topology, phase int) migrate.LinkHealth {
	kind := topology.KindUPI
	if topo.HasPool() {
		kind = topology.KindCXL
	}
	o := sched.Outlook(kind.String(), phase)
	h := migrate.LinkHealth{
		LatencyX:     o.LatencyX,
		BandwidthDiv: o.BandwidthDiv,
		DownFrac:     o.DownFrac,
	}
	if topo.HasPool() {
		ps := sched.Pool(phase, sys.Pool.Channels)
		h.PoolDead = ps.Dead
		h.PoolCapacityFrac = ps.CapacityFrac
	}
	return h
}
