package main

import (
	"encoding/json"
	"os"
	"strconv"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/topology"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the enclosing span, -1 at the
// top. Spans of one pipeline share its label.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Pipeline string `json:"pipeline"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the traced round writes them out once it
// has finished. Rounds are single-threaded, so it needs no locking.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int
	pipeline string
	// counts is the work done under spans, keyed by span name: accesses
	// recorded ("workload.record"), records dumped or loaded ("trace.dump",
	// "trace.load"), and accesses of the streams step B decided over
	// ("core.stepB.accesses").
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Pipeline: t.pipeline})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedGen puts workload spans around a generator's phase calls: step A
// recording happens inside the first ResetPhase of each (stream, phase),
// later ones replay the stream cache. Embedding keeps the optional
// methods core looks for (ReplayArrays, StreamSig), so core takes the
// same paths as with a bare generator.
type tracedGen struct {
	*workload.Generator
	t      *tracer
	budget uint64
}

// streamLen holds the length of every (stream signature, phase) recorded
// in this process. The stream cache is process-global, so a stream is
// recorded once per process, by the first ResetPhase that asks for it.
var streamLen = map[string]float64{}

func streamKey(sig string, phase int) string { return sig + "|" + strconv.Itoa(phase) }

func (g *tracedGen) SetPhaseBudget(budget uint64) {
	g.budget = budget
	g.Generator.SetPhaseBudget(budget)
}

func (g *tracedGen) ResetPhase(phase int) {
	sig, recording := g.StreamSig()
	key := streamKey(sig, phase)
	_, seen := streamLen[key]
	recording = recording && !seen
	name := "workload.reset"
	if recording {
		name = "workload.record"
	}
	id := g.t.begin(name)
	g.Generator.ResetPhase(phase)
	g.t.end(id)
	if off, _, _, ok := g.ReplayArrays(g.budget); ok && recording {
		n := float64(off[len(off)-1])
		streamLen[key] = n
		g.t.counts["workload.record"] += n
	}
}

// tracedSource puts trace spans around a trace source's phase loads:
// ResetPhase reads the phase's file when it differs from the loaded one.
type tracedSource struct {
	*trace.Source
	t       *tracer
	records []uint64 // records per phase file
	cur     int
}

func (s *tracedSource) ResetPhase(phase int) {
	i := phase % len(s.records)
	if i != s.cur {
		id := s.t.begin("trace.load")
		s.Source.ResetPhase(phase)
		s.t.end(id)
		s.t.counts["trace.load"] += float64(s.records[i])
		s.cur = i
	} else {
		s.Source.ResetPhase(phase)
	}
}

// runTraced runs one pipeline through the calls runner.Runner.Run makes
// with Jobs 1 and no cache — a pooled generator for step B, one per
// window for step C, windows merged in checkpoint order — with a span
// around each layer call. runner.Run itself offers no hook between its
// layer calls, so the traced run replays its sequence here.
//
// Step B's work is counted as the accesses of every phase stream it
// decides over, whether it walks them or restores a memoized ingest.
func runTraced(t *tracer, p pipeline) (*core.Result, error) {
	t.pipeline = p.Label
	root := t.begin("pipeline")
	defer t.end(root)
	sockets := topology.New(p.Sys.Topology).Sockets()
	acquire := func() (*tracedGen, error) {
		g, err := workload.AcquireGenerator(p.Spec, sockets, p.Sys.CoresPerSocket)
		if err != nil {
			return nil, err
		}
		return &tracedGen{Generator: g, t: t}, nil
	}
	g, err := acquire()
	if err != nil {
		return nil, err
	}
	id := t.begin("core.stepB")
	plan, err := core.NewPlan(p.Sys, p.Cfg, g)
	t.end(id)
	sig, _ := g.StreamSig()
	for ph := 0; ph < p.Cfg.Phases; ph++ {
		t.counts["core.stepB.accesses"] += streamLen[streamKey(sig, ph)]
	}
	workload.ReleaseGenerator(g.Generator)
	if err != nil {
		return nil, err
	}
	windows := make([]core.Window, plan.NumWindows())
	for i := range windows {
		g, err := acquire()
		if err != nil {
			return nil, err
		}
		id := t.begin("core.stepC")
		windows[i] = plan.RunWindow(i, g)
		t.end(id)
		workload.ReleaseGenerator(g.Generator)
	}
	id = t.begin("core.merge")
	res := plan.Assemble(windows)
	t.end(id)
	return res, nil
}

// runTracedSource is the traced counterpart of core.RunSource over a
// trace replay source: one source serves step B and every window.
func runTracedSource(t *tracer, p pipeline, paths []string, records []uint64) (*core.Result, error) {
	t.pipeline = p.Label
	root := t.begin("pipeline")
	defer t.end(root)
	sockets := topology.New(p.Sys.Topology).Sockets()
	id := t.begin("trace.load")
	src, err := trace.NewSource(p.Spec, sockets, p.Sys.CoresPerSocket, paths)
	t.end(id)
	if err != nil {
		return nil, err
	}
	t.counts["trace.load"] += float64(records[0])
	ts := &tracedSource{Source: src, t: t, records: records}
	id = t.begin("core.stepB")
	plan, err := core.NewPlan(p.Sys, p.Cfg, ts)
	t.end(id)
	for ph := 0; ph < p.Cfg.Phases; ph++ {
		t.counts["core.stepB.accesses"] += float64(records[ph%len(records)])
	}
	if err != nil {
		return nil, err
	}
	windows := make([]core.Window, plan.NumWindows())
	for i := range windows {
		id := t.begin("core.stepC")
		windows[i] = plan.RunWindow(i, ts)
		t.end(id)
	}
	id = t.begin("core.merge")
	res := plan.Assemble(windows)
	t.end(id)
	return res, nil
}
