package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"starnuma/internal/core"
	"starnuma/internal/runner"
	"starnuma/internal/topology"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

// roundReport is what one round process prints for the parent: one
// cold set-up plus one pass over the workload's pipelines.
type roundReport struct {
	SetupS       float64            `json:"setup_s"`
	MeasuredS    float64            `json:"measured_s"`
	CPUS         float64            `json:"cpu_s"`
	GCCPUFrac    float64            `json:"gc_cpu_frac"`
	Instructions uint64             `json:"instructions"`
	HeapMB       float64            `json:"retained_heap_mb"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	AccuracyPct  float64            `json:"fig8a_gmean_accuracy_pct"`
	Pipelines    int                `json:"pipelines"`
	PipelineS    map[string]float64 `json:"pipeline_s"`
	Digests      map[string]string  `json:"digests"`
	Failed       map[string]string  `json:"failed"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// roundOpts selects what a round does besides the measured pass.
type roundOpts struct {
	workload string
	seed     int64
	kind     string // "setup" (set-up only), "plain" or "traced" (spans around every layer call)
	genCheck bool   // trace-replay: also run every pipeline on the generator path
	spawnNS  int64  // parent's clock when it started this process
	outDir   string // scratch space inside the checkout
}

// round is one cold process's set-up and measured pass.
type round struct {
	opts    roundOpts
	pipes   []pipeline
	specs   []workload.Spec
	check   *checker
	tr      *tracer
	paths   map[string][]string // trace-replay: phase files per workload
	records map[string][]uint64 // trace-replay: records per phase file
}

func runRound(o roundOpts) (*roundReport, error) {
	pipes, specs, err := pipelinesFor(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(o.seed)
	if err != nil {
		return nil, err
	}
	r := &round{opts: o, pipes: pipes, specs: specs, check: chk}
	if o.kind == "traced" {
		r.tr = newTracer()
	}
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.cleanup()

	rep := &roundReport{SetupS: float64(time.Now().UnixNano()-o.spawnNS) / 1e9}
	if o.kind == "setup" {
		return rep, nil
	}
	rep.Pipelines = len(pipes)
	cpu0, gc0 := cpuSeconds(), gcCPU()
	start := time.Now()
	results, times := r.measure()
	rep.MeasuredS = time.Since(start).Seconds()
	rep.PipelineS = times
	rep.CPUS = cpuSeconds() - cpu0
	gc1 := gcCPU()
	if total := gc1.total - gc0.total; total > 0 {
		rep.GCCPUFrac = (gc1.gc - gc0.gc) / total
	}
	rep.HeapMB = liveHeapMB()
	rep.PeakRSSMB = peakRSSMB()
	runtime.KeepAlive(results)

	for _, p := range r.pipes {
		if res := results[p.Label]; res != nil {
			rep.Instructions += res.Instructions
		}
	}
	if rep.AccuracyPct, err = fig8aAccuracyPct(results, r.specs); err != nil {
		r.check.fail("fig8a", "%v", err)
	}
	if o.genCheck {
		r.generatorCheck()
	}
	if r.tr != nil {
		rep.Layers = r.layerMetrics(r.instrumented(), rep)
		if err := r.tr.write(filepath.Join(o.outDir, "spans-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	rep.Digests, rep.Failed = r.check.digests, r.check.failed
	return rep, nil
}

// setup does everything a workload needs before its measured pass:
// validating specs and building generators, plus recording streams
// (policy-sweep) or dumping SNTR files (trace-replay).
func (r *round) setup() error {
	shape := core.StarNUMASystem()
	sockets, cores := topology.New(shape.Topology).Sockets(), shape.CoresPerSocket
	budget := core.QuickSim().PhaseInstr
	phases := core.QuickSim().Phases
	switch r.opts.workload {
	case wlFig8aCold:
		// Nothing is pre-recorded: steps A and B stay on the measured path.
		for _, spec := range r.specs {
			g, err := workload.AcquireGenerator(spec, sockets, cores)
			if err != nil {
				return err
			}
			workload.ReleaseGenerator(g)
		}
	case wlPolicySweep:
		for _, spec := range r.specs {
			g, err := workload.AcquireGenerator(spec, sockets, cores)
			if err != nil {
				return err
			}
			var src interface {
				SetPhaseBudget(uint64)
				ResetPhase(int)
			} = g
			if r.tr != nil {
				r.tr.pipeline = "setup/" + spec.Name
				src = &tracedGen{Generator: g, t: r.tr}
			}
			src.SetPhaseBudget(budget)
			for ph := 0; ph < phases; ph++ {
				src.ResetPhase(ph)
			}
			workload.ReleaseGenerator(g)
		}
	case wlTraceReplay:
		dir := filepath.Join(r.opts.outDir, "sntr-"+strconv.Itoa(os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		r.paths, r.records = map[string][]string{}, map[string][]uint64{}
		for _, spec := range r.specs {
			g, err := workload.NewGenerator(spec, sockets, cores)
			if err != nil {
				return err
			}
			for ph := 0; ph < phases; ph++ {
				path := filepath.Join(dir, fmt.Sprintf("%s.p%d.sntr", spec.Name, ph))
				id := -1
				if r.tr != nil {
					r.tr.pipeline = "setup/" + spec.Name
					id = r.tr.begin("trace.dump")
				}
				n, err := dumpPhase(g, ph, budget, path)
				if id >= 0 {
					r.tr.end(id)
					r.tr.counts["trace.dump"] += float64(n)
				}
				if err != nil {
					return err
				}
				r.paths[spec.Name] = append(r.paths[spec.Name], path)
				r.records[spec.Name] = append(r.records[spec.Name], n)
			}
		}
	}
	return nil
}

func dumpPhase(g *workload.Generator, phase int, budget uint64, path string) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := trace.DumpPhase(g, phase, budget, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (r *round) cleanup() {
	if r.paths != nil {
		os.RemoveAll(filepath.Join(r.opts.outDir, "sntr-"+strconv.Itoa(os.Getpid())))
	}
}

// measure runs every pipeline once, one at a time, checks each result
// as it arrives and times each pipeline.
func (r *round) measure() (map[string]*core.Result, map[string]float64) {
	results := make(map[string]*core.Result, len(r.pipes))
	times := make(map[string]float64, len(r.pipes))
	exec := runner.New(runner.Config{Jobs: 1})
	for _, p := range r.pipes {
		var res *core.Result
		var err error
		t0 := time.Now()
		func() {
			defer func() {
				if v := recover(); v != nil {
					err = fmt.Errorf("panic: %v", v)
				}
			}()
			res, err = r.run(exec, p, r.tr)
		}()
		times[p.Label] = time.Since(t0).Seconds()
		r.check.record(p.Label, res, err)
		results[p.Label] = res
	}
	return results, times
}

// run executes one pipeline on the workload's route, with spans when tr
// is set.
func (r *round) run(exec *runner.Runner, p pipeline, tr *tracer) (*core.Result, error) {
	if r.opts.workload == wlTraceReplay {
		name := p.Spec.Name
		if tr != nil {
			return runTracedSource(tr, p, r.paths[name], r.records[name])
		}
		sockets := topology.New(p.Sys.Topology).Sockets()
		src, err := trace.NewSource(p.Spec, sockets, p.Sys.CoresPerSocket, r.paths[name])
		if err != nil {
			return nil, err
		}
		return core.RunSource(p.Sys, p.Cfg, src)
	}
	if tr != nil {
		return runTraced(tr, p)
	}
	return exec.Run(p.Label, p.Sys, p.Cfg, p.Spec)
}

// generatorCheck runs every pipeline on the generator path and requires
// the trace replay to have produced the identical Result.
func (r *round) generatorCheck() {
	gen := map[string]string{}
	for _, p := range r.pipes {
		cfg := p.Cfg
		cfg.CollectMetrics, cfg.Attrib = false, false
		res, err := core.Run(p.Sys, cfg, p.Spec)
		if err != nil {
			r.check.fail(p.Label, "generator path: %v", err)
			continue
		}
		d, err := digest(res)
		if err != nil {
			r.check.fail(p.Label, "generator path digest: %v", err)
			continue
		}
		gen[p.Label] = d
	}
	r.check.expect("the generator path", gen)
}

// instrumented reruns every pipeline with CollectMetrics and Attrib on,
// for the deterministic counts they export. Both layers are passive, so
// each Result must digest as the measured pass's did, and every
// attribution profile must account for exactly the latency it explains.
func (r *round) instrumented() map[string]*core.Result {
	out := map[string]*core.Result{}
	got := map[string]string{}
	exec := runner.New(runner.Config{Jobs: 1})
	for _, p := range r.pipes {
		p.Cfg.CollectMetrics, p.Cfg.Attrib = true, true
		res, err := r.run(exec, p, nil)
		if err == nil {
			err = res.Profile.CheckConservation()
		}
		if err != nil {
			r.check.fail(p.Label, "with metrics and attribution on: %v", err)
			continue
		}
		if got[p.Label], err = digest(res); err != nil {
			r.check.fail(p.Label, "digest: %v", err)
		}
		out[p.Label] = res
	}
	r.check.expect("the run with metrics and attribution on", got)
	return out
}
