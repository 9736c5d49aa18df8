package main

import (
	"time"

	"starnuma/internal/cache"
	"starnuma/internal/coherence"
	"starnuma/internal/core"
	"starnuma/internal/link"
	"starnuma/internal/memdev"
	"starnuma/internal/sim"
	"starnuma/internal/tlb"
	"starnuma/internal/topology"
	"starnuma/internal/tracker"
	"starnuma/internal/workload"
)

// probeAccess is one access of the replayed stream.
type probeAccess struct {
	core   int
	page   uint32
	block  uint64
	write  bool
	socket topology.NodeID
}

// probeStream is BFS phase 0's recorded stream at the run's seed, with
// cores interleaved one access at a time as the simulator visits them.
// ReplayArrays carries no block offsets, so each access takes the block
// its stream position selects.
func probeStream(seed int64) ([]probeAccess, int, error) {
	specs, err := specsByName([]string{"BFS"}, seed)
	if err != nil {
		return nil, 0, err
	}
	sys, cfg := core.StarNUMASystem(), core.QuickSim()
	sockets := topology.New(sys.Topology).Sockets()
	g, err := workload.NewGenerator(specs[0], sockets, sys.CoresPerSocket)
	if err != nil {
		return nil, 0, err
	}
	g.SetPhaseBudget(cfg.PhaseInstr)
	g.ResetPhase(0)
	off, pages, writes, _ := g.ReplayArrays(cfg.PhaseInstr)
	cores := len(off) - 1
	out := make([]probeAccess, 0, off[cores])
	for k := int32(0); len(out) < int(off[cores]); k++ {
		for c := 0; c < cores; c++ {
			if i := off[c] + k; i < off[c+1] {
				out = append(out, probeAccess{
					core: c, page: pages[i], write: writes[i],
					block:  uint64(pages[i])*workload.BlocksPerPage + uint64(i)%workload.BlocksPerPage,
					socket: topology.NodeID(c / sys.CoresPerSocket),
				})
			}
		}
	}
	return out, g.NumPages(), nil
}

// probeSubstrates drives each step-C substrate's public entry points
// with the probe stream and reports host ns per operation, the median of
// three passes, each on fresh state.
func probeSubstrates(seed int64) map[string]float64 {
	acc, pages, err := probeStream(seed)
	if err != nil || len(acc) == 0 {
		return nil
	}
	sys := core.StarNUMASystem()
	sockets := topology.New(sys.Topology).Sockets()
	n := float64(len(acc))
	probes := map[string]func(){
		"cache.ns_per_op": func() {
			llcs := make([]*cache.LLC, sockets)
			for i := range llcs {
				llcs[i] = cache.New(sys.LLCBytes, sys.LLCWays)
			}
			for _, a := range acc {
				if !llcs[a.socket].Touch(a.block) {
					llcs[a.socket].Insert(a.block, a.write)
				}
			}
		},
		"coherence.ns_per_access": func() {
			d := coherence.NewDirectorySized(sockets, pages*workload.BlocksPerPage)
			for _, a := range acc {
				d.Access(a.socket, a.block, a.write, a.page%4 == 0)
			}
		},
		"tlb.ns_per_access": func() {
			s := tlb.NewSystem(sockets*sys.CoresPerSocket, pages, tlb.DefaultConfig())
			for i, a := range acc {
				s.Access(a.core, a.page)
				if i%1024 == 0 {
					s.Shootdown(a.page)
				}
			}
		},
		"tracker.ns_per_record": func() {
			t := tracker.NewTable(tracker.T16, pages, core.QuickSim().RegionPages)
			for _, a := range acc {
				t.Record(int(a.socket), a.page)
			}
		},
		"link.ns_per_send": func() {
			l := link.New("probe", sys.UPIBandwidth, 25*sim.Nanosecond)
			var now sim.Time
			for _, a := range acc {
				bytes := sys.MessageBytes
				if a.write {
					bytes = sys.DataBytes
				}
				l.Send(now, bytes)
				now += sim.Nanosecond
			}
		},
		"memdev.ns_per_access": func() {
			c := memdev.NewController("probe", sys.SocketMem)
			var now sim.Time
			for _, a := range acc {
				c.Access(now, a.block*64, 64)
				now += sim.Nanosecond
			}
		},
		"sim.ns_per_event": func() {
			e := sim.NewEngine()
			noop := func(sim.Time) {}
			for i, a := range acc {
				e.At(e.Now()+sim.Time(a.page%512)*sim.Nanosecond, noop)
				if i%64 == 63 {
					e.Run()
				}
			}
			e.Run()
		},
	}
	out := map[string]float64{}
	for _, name := range sortedKeys(probes) {
		var passes []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			probes[name]()
			passes = append(passes, float64(time.Since(t0))/n)
		}
		out[name] = quantile(passes, 0.5)
	}
	return out
}
