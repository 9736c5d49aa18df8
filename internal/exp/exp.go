// Package exp reproduces every table and figure of the StarNUMA
// evaluation (§V). Each experiment returns a Table whose rows mirror the
// series the paper reports; starnuma -exp all renders the full set and
// EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"starnuma/internal/core"
	"starnuma/internal/runner"
	"starnuma/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	ID      string // e.g. "fig8a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records the paper's reported values/shape for comparison.
	Notes string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				// Ragged row: cells beyond the column count render
				// unpadded rather than panicking.
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Notes)
	}
	return b.String()
}

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload footprints (DESIGN.md §4).
	Scale float64
	// Sim is the base methodology configuration; experiments override
	// policy/tracker per variant.
	Sim core.SimConfig
	// Workloads restricts the suite (nil = all eight).
	Workloads []string

	// Jobs is the worker-slot count of the parallel execution runner
	// (0 = GOMAXPROCS).
	Jobs int
	// CacheDir enables the persistent result cache when non-empty
	// (internal/runner; keyed by system+sim+workload content hash).
	CacheDir string
	// Reporter observes job progress; nil = silent.
	Reporter runner.Reporter

	// Trace is the event-trace output path (WriteTrace); non-empty
	// implies Sim.Trace. Set CacheDir empty alongside it: cache hits
	// skip simulation and therefore contribute no events.
	Trace string
	// WallTrace, when non-nil, is the wall-clock runner-lane recorder;
	// it must also be wired into Reporter to observe anything.
	WallTrace *runner.TraceReporter
}

// Quick returns bench/test-sized options (minutes for the full suite).
func Quick() Options {
	return Options{Scale: 0.125, Sim: core.QuickSim()}
}

// Default returns the full evaluation options.
func Default() Options {
	return Options{Scale: 0.25, Sim: core.DefaultSim()}
}

// specs resolves the selected workloads.
func (o Options) specs() ([]workload.Spec, error) {
	all := workload.Suite(o.Scale)
	if len(o.Workloads) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range o.Workloads {
		want[n] = true
	}
	var out []workload.Spec
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("exp: unknown workloads %v", missing)
	}
	return out, nil
}

// Runner memoises simulation results so experiments sharing a
// configuration (e.g. the baseline used by Figs. 8-12) simulate it
// once, and routes execution through internal/runner's parallel
// scheduler: each figure prefetches its (variant × workload) grid as
// one wave of suite-level jobs, and each job's step-C windows fan out
// as window-level jobs.
type Runner struct {
	opts Options
	exec *runner.Runner

	mu   sync.Mutex
	memo map[string]*core.Result
}

// NewRunner creates a runner for the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts: opts,
		exec: runner.New(runner.Config{
			Jobs:     opts.Jobs,
			CacheDir: opts.CacheDir,
			Reporter: opts.Reporter,
		}),
		memo: make(map[string]*core.Result),
	}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Exec returns the underlying execution scheduler (progress metrics).
func (r *Runner) Exec() *runner.Runner { return r.exec }

func (r *Runner) memoGet(key string) (*core.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.memo[key]
	return res, ok
}

func (r *Runner) memoPut(key string, res *core.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memo[key] = res
}

// run executes (or recalls) one (variant, workload) simulation. The
// variant key must uniquely identify sys+cfg.
func (r *Runner) run(variant string, sys core.SystemConfig, cfg core.SimConfig, spec workload.Spec) (*core.Result, error) {
	key := variant + "|" + spec.Name
	if res, ok := r.memoGet(key); ok {
		return res, nil
	}
	res, err := r.exec.Run(variant+"/"+spec.Name, sys, cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("exp: %s/%s: %w", variant, spec.Name, err)
	}
	r.memoPut(key, res)
	return res, nil
}

// variant bundles a named (system, methodology) configuration. The name
// doubles as the memo key prefix, so it must uniquely identify sys+cfg.
type variant struct {
	name string
	sys  core.SystemConfig
	cfg  core.SimConfig
}

// runVariant recalls or computes one (variant, workload) pair.
func (r *Runner) runVariant(v variant, spec workload.Spec) (*core.Result, error) {
	return r.run(v.name, v.sys, v.cfg, spec)
}

// prefetch fans every not-yet-memoised (variant × workload) pair
// through the parallel scheduler in one wave; subsequent runVariant
// calls for these pairs are memo hits. This is the suite-level job
// decomposition: figures call it before their sequential row loops.
func (r *Runner) prefetch(specs []workload.Spec, vs ...variant) error {
	var jobs []runner.Job
	var keys []string
	for _, v := range vs {
		for _, spec := range specs {
			key := v.name + "|" + spec.Name
			if _, ok := r.memoGet(key); ok {
				continue
			}
			jobs = append(jobs, runner.Job{
				Label: v.name + "/" + spec.Name,
				Sys:   v.sys, Cfg: v.cfg, Spec: spec,
			})
			keys = append(keys, key)
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	results, err := r.exec.RunAll(jobs)
	if err != nil {
		return fmt.Errorf("exp: prefetch: %w", err)
	}
	for i, res := range results {
		r.memoPut(keys[i], res)
	}
	return nil
}

// baselineVariant is the paper's favoured baseline: no pool, perfect
// zero-cost page knowledge.
func (r *Runner) baselineVariant() variant {
	cfg := r.opts.Sim
	cfg.Policy = core.PolicyPerfectBaseline
	return variant{"baseline", core.BaselineSystem(), cfg}
}

// starnumaVariant is the default StarNUMA configuration (T16 tracker).
// A non-default Options.Sim.Policy (the -policy flag) is respected and
// suffixed into the variant name, so the memo key still uniquely
// identifies the configuration; the default keeps the historical name
// and therefore the historical cache keys.
func (r *Runner) starnumaVariant() variant {
	cfg := r.opts.Sim
	name := "starnuma-t16"
	if tag := cfg.Policy.Tag(); tag != "starnuma" {
		name += "@" + tag
	} else {
		cfg.Policy = core.PolicyStarNUMA
	}
	return variant{name, core.StarNUMASystem(), cfg}
}

// baseline runs the paper's favoured baseline for one workload.
func (r *Runner) baseline(spec workload.Spec) (*core.Result, error) {
	return r.runVariant(r.baselineVariant(), spec)
}

// starnuma runs the default StarNUMA configuration for one workload.
func (r *Runner) starnuma(spec workload.Spec) (*core.Result, error) {
	return r.runVariant(r.starnumaVariant(), spec)
}

// formatting helpers

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ns(v float64) string  { return fmt.Sprintf("%.0fns", v) }
func x(v float64) string   { return fmt.Sprintf("%.2fx", v) }
