package main

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"starnuma/internal/attrib"
	"starnuma/internal/core"
	"starnuma/internal/runner"
)

// layerMetrics derives the per-layer numbers of a traced round from its
// spans, the deterministic counts in its Results, the substrate replay
// probes and a warm result-cache pass.
func (r *round) layerMetrics(results map[string]*core.Result, rep *roundReport) map[string]float64 {
	t := r.tr
	m := map[string]float64{}
	self := selfTimes(t.spans)
	total := map[string]int64{}
	var windows []float64
	var rootNS, layerNS int64
	for i, s := range t.spans {
		total[s.Name] += s.dur()
		switch {
		case s.Name == "core.stepC":
			windows = append(windows, float64(s.dur())/1e6)
		case s.Name == "pipeline":
			rootNS += s.dur()
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == "pipeline" {
			layerNS += t.spans[i].dur()
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	perOp := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / n
	}

	m["workload.record_s"] = sec(total["workload.record"])
	m["workload.accesses"] = t.counts["workload.record"]
	m["workload.ns_per_access"] = perOp(total["workload.record"], t.counts["workload.record"])
	m["trace.dump_s"] = sec(total["trace.dump"])
	m["trace.load_s"] = sec(total["trace.load"])
	m["trace.records"] = t.counts["trace.load"]

	m["core.stepB_s"] = sec(self["core.stepB"])
	m["core.stepB_plans"] = float64(len(results))
	m["core.stepB_ns_per_access"] = perOp(self["core.stepB"], t.counts["core.stepB.accesses"])
	m["core.stepC_s"] = sec(self["core.stepC"])
	m["core.windows"] = float64(len(windows))
	m["core.window_p50_ms"] = quantile(windows, 0.5)
	m["core.window_p90_ms"] = quantile(windows, 0.9)
	m["core.merge_s"] = sec(self["core.merge"])

	var events, misses, llcHits, llcInserts, linkMsgs, linkQueuedPS, queueMax float64
	cats := make([]int64, attrib.NumCategories)
	for label, res := range results {
		m["migrate.pages_to_pool"] += float64(res.MigrStats.PagesToPool)
		m["migrate.pages_to_socket"] += float64(res.MigrStats.PagesToSocket)
		m["migrate.evictions"] += float64(res.MigrStats.Evictions)
		m["migrate.pingpong_skips"] += float64(res.MigrStats.PingPongSkips)
		m["tracker.flushes"] += float64(res.TrackerFlushes)
		m["coherence.transactions"] += float64(res.Dir.Transactions)
		m["coherence.bt4hop"] += float64(res.Dir.BT4Hop)
		m["coherence.invalidations"] += float64(res.Dir.Invalidations)
		m["tlb.shootdowns"] += float64(res.TLB.Shootdowns)
		m["tlb.walks"] += float64(res.TLB.Walks)
		m["fault.degraded_sends"] += float64(res.FaultDegradedSends)
		misses += float64(res.Misses)
		if err := res.Profile.AddCategoryTotals(cats); err != nil {
			r.check.fail(label, "attribution profile: %v", err)
		}
		for name, v := range res.Metrics.Counters {
			switch {
			case name == "sim/events_fired":
				events += float64(v)
			case strings.HasPrefix(name, "llc/") && strings.HasSuffix(name, "/hits"):
				llcHits += float64(v)
			case strings.HasPrefix(name, "llc/") && strings.HasSuffix(name, "/inserts"):
				llcInserts += float64(v)
			case strings.HasPrefix(name, "link/") && strings.HasSuffix(name, "/messages"):
				linkMsgs += float64(v)
			case strings.HasPrefix(name, "link/") && strings.HasSuffix(name, "/queued_ps"):
				linkQueuedPS += float64(v)
			}
		}
		for _, pt := range res.Metrics.Series["sim/queue_depth_max"] {
			queueMax = max(queueMax, pt.V)
		}
	}
	m["sim.events_fired"] = events
	m["sim.queue_depth_max"] = queueMax
	m["core.stepC_ns_per_event"] = perOp(self["core.stepC"], events)
	m["core.stepC_ns_per_miss"] = perOp(self["core.stepC"], misses)
	if llcHits+llcInserts > 0 {
		m["cache.hit_ratio"] = llcHits / (llcHits + llcInserts)
	}
	m["link.messages"] = linkMsgs
	m["link.queued_ns"] = linkQueuedPS / 1000
	for _, c := range []string{"link-queue", "cxl-queue", "dram-queue", "migration"} {
		if cat, ok := attrib.ByName(c); ok {
			m["attrib."+c+"_ns"] = float64(cats[cat]) / 1000
		}
	}

	if rootNS > 0 {
		m["runner.overhead_pct"] = 100 * float64(rootNS-layerNS) / float64(rootNS)
	}
	m["spans.coverage_pct"] = 100 * float64(layerNS) / (rep.MeasuredS * 1e9)
	m["runner.cache_hit_ms"] = r.cacheHitMS()
	for k, v := range probeSubstrates(r.opts.seed) {
		m[k] = v
	}
	m["host.cpu_s"] = rep.CPUS
	m["host.gc_cpu_frac"] = rep.GCCPUFrac
	m["host.peak_rss_mb"] = rep.PeakRSSMB
	return m
}

// selfTimes sums, per span name, each span's duration minus the part
// its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

// quantile is the q-quantile of xs by the nearest-rank method, 0 when
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cacheHitMS times runner.Run answering the round's first pipeline from
// a warm result cache: the median of five hits after one store.
func (r *round) cacheHitMS() float64 {
	p := r.pipes[0]
	p.Cfg.CollectMetrics, p.Cfg.Attrib = false, false
	dir := filepath.Join(r.opts.outDir, "cache-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	exec := runner.New(runner.Config{Jobs: 1, CacheDir: dir})
	if _, err := exec.Run(p.Label, p.Sys, p.Cfg, p.Spec); err != nil {
		r.check.fail(p.Label, "result cache store: %v", err)
		return 0
	}
	var hits []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		res, err := exec.Run(p.Label, p.Sys, p.Cfg, p.Spec)
		hits = append(hits, float64(time.Since(t0))/1e6)
		if err != nil {
			r.check.fail(p.Label, "result cache hit: %v", err)
			return 0
		}
		if d, err := digest(res); err != nil || d != r.check.digests[p.Label] {
			r.check.fail(p.Label, "result cache returned a different Result")
		}
	}
	if exec.Metrics().CacheHits != 5 {
		r.check.fail(p.Label, "result cache: %d hits of 5", exec.Metrics().CacheHits)
	}
	return quantile(hits, 0.5)
}
