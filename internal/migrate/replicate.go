package migrate

import (
	"fmt"
	"sort"

	"starnuma/internal/sim"
)

// ReplicationConfig controls the page replication study (§V-F): an
// alternative to pooling in which widely-shared pages are replicated
// into every sharer's local memory. Reads hit the local replica; writes
// must keep replicas coherent in software, which the paper argues is
// prohibitive for read-write pages.
type ReplicationConfig struct {
	Enable bool
	// MinSharers: only pages this widely shared are replication
	// candidates (mirrors Algorithm 1's pool threshold).
	MinSharers int
	// MaxWriteFrac: pages writing more than this are excluded — software
	// replica coherence on write-hot pages is the study's point of
	// failure.
	MaxWriteFrac float64
	// CapacityFrac bounds the replicated footprint fraction, modelling
	// the memory-capacity pressure replication causes (each replica
	// consumes a full copy in every sharer socket).
	CapacityFrac float64
	// WritePenaltyCycles is the software coherence cost charged to every
	// store that hits a replicated page (invalidating replicas via
	// interprocessor interrupts and kernel handlers).
	WritePenaltyCycles sim.Cycles
}

// DefaultReplicationConfig mirrors the paper's framing: replicate
// read-mostly pages shared by 8+ sockets, capped at 25% of the
// footprint, with a multi-microsecond software penalty per store.
func DefaultReplicationConfig() ReplicationConfig {
	return ReplicationConfig{
		MinSharers:         8,
		MaxWriteFrac:       0.05,
		CapacityFrac:       0.25,
		WritePenaltyCycles: 5000,
	}
}

// Validate reports configuration errors.
func (c ReplicationConfig) Validate() error {
	if !c.Enable {
		return nil
	}
	if c.MinSharers < 1 {
		return fmt.Errorf("migrate: replication MinSharers %d", c.MinSharers)
	}
	if c.MaxWriteFrac < 0 || c.MaxWriteFrac > 1 {
		return fmt.Errorf("migrate: replication MaxWriteFrac %v", c.MaxWriteFrac)
	}
	if c.CapacityFrac <= 0 || c.CapacityFrac > 1 {
		return fmt.Errorf("migrate: replication CapacityFrac %v", c.CapacityFrac)
	}
	if c.WritePenaltyCycles < 0 {
		return fmt.Errorf("migrate: replication WritePenaltyCycles %d", c.WritePenaltyCycles)
	}
	return nil
}

// Replicas is a replica set together with the ReplicationConfig it was
// selected under. Step C serves reads of the Pages socket-locally and
// charges Config's write penalty on their stores. Pages is nil when
// nothing was selected.
type Replicas struct {
	Pages  []bool
	Config ReplicationConfig
}

// Replicator is implemented by policies that select pages for software
// replication as part of their decisions. core carries the final
// selection to step C as TraceResult.Replicas.
type Replicator interface {
	// Replicas returns the pages selected so far and the config they
	// were selected under.
	Replicas() Replicas
}

// ReplicationPolicy turns the §V-F study into a dynamic policy:
// Algorithm 1's scan handles region placement, while a per-phase pass
// over the page counts replicates hot, widely-shared, read-mostly pages
// — the vagabond pages that architecturally lack a good single home.
// Selection is sticky (a replica, once made, stays) and bounded by the
// capacity budget; replicated pages are kept out of the pool, whose
// capacity is better spent on write-shared pages replicas cannot serve.
type ReplicationPolicy struct {
	inner *StarNUMA
	cfg   ReplicationConfig
	hot   uint64 // per-phase access floor for a replication candidate

	replicated []bool
	nRepl      int
}

// Name implements Policy.
func (p *ReplicationPolicy) Name() string { return "replication" }

// Stats implements Policy.
func (p *ReplicationPolicy) Stats() Stats { return p.inner.Stats() }

// Replicas implements Replicator.
func (p *ReplicationPolicy) Replicas() Replicas {
	return Replicas{Pages: p.replicated, Config: p.cfg}
}

// Decide implements Policy.
func (p *ReplicationPolicy) Decide(phase int, st *State) []Migration {
	if st.Counts != nil {
		p.updateReplicas(st)
	}
	out := p.inner.Decide(phase, st)
	if !st.HasPool || p.nRepl == 0 {
		return out
	}
	// Replicated pages are read socket-locally; pooling them wastes
	// capacity. Cancel the scan's pool-bound moves of replicated pages.
	kept := out[:0]
	for _, m := range out {
		if m.To == st.PoolNode && int(m.Page) < len(p.replicated) && p.replicated[m.Page] {
			st.PageHome[m.Page] = m.From
			continue
		}
		kept = append(kept, m)
	}
	return kept
}

// updateReplicas grows the sticky replica set from this phase's counts:
// qualifying pages (widely shared, read-mostly, hot enough) join in
// descending heat order until the capacity budget is spent.
func (p *ReplicationPolicy) updateReplicas(st *State) {
	pages := len(st.PageHome)
	if p.replicated == nil {
		p.replicated = make([]bool, pages)
	}
	budget := int(p.cfg.CapacityFrac * float64(pages))
	if p.nRepl >= budget {
		return
	}
	type cand struct {
		pg  uint32
		tot uint64
	}
	var cands []cand
	for pg := 0; pg < pages; pg++ {
		u := uint32(pg)
		if p.replicated[pg] {
			continue
		}
		tot := st.Counts.Total(u)
		if tot < p.hot || st.Counts.Sharers(u) < p.cfg.MinSharers ||
			st.Counts.WriteFrac(u) > p.cfg.MaxWriteFrac {
			continue
		}
		cands = append(cands, cand{u, tot})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tot != cands[j].tot {
			return cands[i].tot > cands[j].tot
		}
		return cands[i].pg < cands[j].pg
	})
	for _, c := range cands {
		if p.nRepl >= budget {
			break
		}
		p.replicated[c.pg] = true
		p.nRepl++
	}
}

// ReplicationSet selects the pages to replicate from whole-run access
// knowledge: the hottest pages that are widely shared and read-mostly,
// up to the capacity budget. Like the oracle policy, the study is
// deliberately idealized — it measures replication's best case.
func ReplicationSet(total *PageCounts, cfg ReplicationConfig) []bool {
	pages := total.Pages()
	out := make([]bool, pages)
	if !cfg.Enable {
		return out
	}
	type cand struct {
		pg  uint32
		tot uint64
	}
	var cands []cand
	for pg := 0; pg < pages; pg++ {
		p := uint32(pg)
		if total.Sharers(p) >= cfg.MinSharers && total.WriteFrac(p) <= cfg.MaxWriteFrac && total.Total(p) > 0 {
			cands = append(cands, cand{p, total.Total(p)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tot != cands[j].tot {
			return cands[i].tot > cands[j].tot
		}
		return cands[i].pg < cands[j].pg
	})
	budget := int(cfg.CapacityFrac * float64(pages))
	for i := 0; i < len(cands) && i < budget; i++ {
		out[cands[i].pg] = true
	}
	return out
}
