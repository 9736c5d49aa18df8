// Command starnuma is the StarNUMA reproduction's one CLI: it runs the
// paper's experiments and inspects everything a run leaves behind.
//
// Usage:
//
//	starnuma -exp fig8a [-quick] [-scale 0.25] [-phases 6] [-workloads BFS,TC]
//	starnuma -exp all -quick [-benchjson BENCH_expall.json]  # the full suite
//	starnuma -exp fig8a -metrics manifest.json   # metrics + stall attribution
//	starnuma -exp fig8a -faults plan.json        # inject fabric faults
//	starnuma -exp fig8a -trace trace.json        # record an event trace
//	starnuma -exp fig8a -cpuprofile cpu.pprof    # profile the run
//	starnuma -list
//
// A run's one artifact is the -metrics manifest: every run's key,
// headline results, metric snapshot and stall profile. The subcommand
// groups read it and the other run outputs:
//
//	starnuma stat dump|diff|top ...       # metric snapshots
//	starnuma prof report|diff|flame ...   # stall attribution
//	starnuma trace summarize|slice|top|export ...  # -trace timelines
//	starnuma workload show|dump ...       # workload models, step-A traces
//	starnuma scenario run|validate|list ...
//	starnuma policy list
//
// Each group prints its usage when run with no arguments. Experiment
// identifiers follow the paper's figure/table numbers; see DESIGN.md §5
// for the index.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"starnuma/internal/exp"
)

// Exit codes. Usage problems and assertion failures are distinct so CI
// can tell a broken invocation or input file from a regression.
const (
	exitOK        = 0
	exitRuntime   = 1 // simulation/IO error
	exitUsage     = 2 // bad usage, unreadable/invalid input
	exitAssertion = 3 // ran, but a checked property failed
)

const usage = `usage: starnuma [flags]              run experiments (-exp ID, or -exp all)
       starnuma <group> <command> ...

Groups:
  stat      dump | diff | top          metric snapshots of manifests and cached results
  prof      report | diff | flame      stall attribution recorded with -metrics
  trace     summarize | slice | top | export   event traces recorded with -trace
  workload  show | dump                workload models and step-A binary traces
  scenario  run | validate | list      declarative scenarios
  policy    list                       migration-policy registry

Run "starnuma <group>" for a group's commands and flags.

Flags:
`

func main() {
	os.Exit(run(os.Args[1:]))
}

// groups maps each subcommand group to its entry point.
var groups = map[string]func(args []string) int{
	"stat":     statMain,
	"prof":     profMain,
	"trace":    traceMain,
	"workload": workloadMain,
	"scenario": scenarioMain,
	"policy":   policyMain,
}

// run dispatches one invocation and returns its exit code.
func run(args []string) int {
	if len(args) > 0 {
		if g, ok := groups[args[0]]; ok {
			return g(args[1:])
		}
	}
	return runExperiments(args)
}

// dispatch runs the command args[0] of a subcommand group. No arguments
// print the usage and fail; help prints it and succeeds.
func dispatch(group, usage string, args []string, cmds map[string]func([]string) int) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, usage)
		return exitUsage
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Print(usage)
		return exitOK
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		fmt.Fprintf(os.Stderr, "starnuma %s: unknown command %q\n%s", group, args[0], usage)
		return exitUsage
	}
	return cmd(args[1:])
}

// errUsage marks a command error as bad usage (exit 2); wrap it with
// fmt.Errorf("%w: ...", errUsage).
var errUsage = errors.New("bad usage")

// withErr adapts a command that reports failure as an error: flag help
// exits 0, an errUsage error is printed and exits 2, any other error is
// printed and exits 1.
func withErr(group string, f func([]string) error) func([]string) int {
	return func(args []string) int {
		err := f(args)
		switch {
		case err == nil:
			return exitOK
		case errors.Is(err, flag.ErrHelp):
			return exitOK
		}
		fmt.Fprintf(os.Stderr, "starnuma %s: %v\n", group, err)
		if errors.Is(err, errUsage) {
			return exitUsage
		}
		return exitRuntime
	}
}

// loadRuns reads a manifest, cache entry or bare result through the
// shared decoder, reporting failures as starnuma <group> errors.
func loadRuns(group, path string) ([]exp.ManifestRun, bool) {
	data, err := os.ReadFile(path)
	if err == nil {
		var runs []exp.ManifestRun
		if runs, err = exp.DecodeRuns(data, path); err == nil {
			return runs, true
		}
		err = fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "starnuma %s: %v\n", group, err)
	return nil, false
}

// benchExperiment is one per-experiment timing record of -benchjson.
// Windows counts the step-C windows actually simulated for the
// experiment, and WindowsPerSec is the simulation throughput those
// windows achieved. Experiments whose runs all came from the in-suite
// memo or the result cache simulate nothing; their Windows is 0 and
// WindowsPerSec is omitted rather than written as a misleading 0.
type benchExperiment struct {
	ID            string  `json:"id"`
	Seconds       float64 `json:"seconds"`
	Windows       int64   `json:"windows"`
	WindowsPerSec float64 `json:"windows_per_sec,omitempty"`
}

// benchReport is the -benchjson document. WindowsPerSec is the suite's
// overall step-C throughput — the headline number docs/PERFORMANCE.md's
// methodology tracks and CI's bench-regress step gates on; it is only
// meaningful for cache-disabled runs (windows_done is 0 on a full
// cache hit).
type benchReport struct {
	Timestamp     string            `json:"timestamp"`
	Quick         bool              `json:"quick"`
	Scale         float64           `json:"scale"`
	Jobs          int               `json:"jobs"`
	SuiteSeconds  float64           `json:"suite_seconds"`
	CacheHits     int64             `json:"cache_hits"`
	CacheMisses   int64             `json:"cache_misses"`
	WindowsDone   int64             `json:"windows_done"`
	WindowsPerSec float64           `json:"windows_per_sec"`
	Experiments   []benchExperiment `json:"experiments"`
}

// runExperiments runs -exp ID (one table) or -exp all (the suite, in
// the paper's order, framed by a configuration header and a footer)
// and writes the requested artifacts.
func runExperiments(args []string) int {
	fs := flag.NewFlagSet("starnuma", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fs.PrintDefaults()
	}
	var (
		expID     = fs.String("exp", "", `experiment to run (e.g. fig8a, tab4), or "all" for the full suite; see -list`)
		list      = fs.Bool("list", false, "list experiment identifiers and exit")
		format    = fs.String("format", "text", "output format: text, csv, md")
		chart     = fs.Int("chart", -1, "render the given column index as ASCII bars instead (one experiment only)")
		benchJSON = fs.String("benchjson", "", "write suite/per-experiment timings to this JSON file")
	)
	cli := exp.AddCLIFlags(fs)
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "starnuma: unknown command %q\n", fs.Arg(0))
		fs.Usage()
		return exitUsage
	}
	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-10s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return exitOK
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "starnuma: -exp required (or -list); e.g. -exp fig8a")
		return exitUsage
	}
	suite := *expID == "all"
	if suite && *chart >= 0 {
		fmt.Fprintln(os.Stderr, "starnuma: -chart renders one experiment, not -exp all")
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "starnuma: %v\n", err)
		return exitRuntime
	}
	stopProf, err := pf.start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	opts, err := cli.Options(os.Stderr)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	r := exp.NewRunner(opts)
	ids := []string{*expID}
	if suite {
		ids = exp.IDs()
		fmt.Printf("StarNUMA reproduction — full experiment suite\n")
		fmt.Printf("scale=%v phases=%d phaseInstr=%d timedInstr=%d jobs=%d\n\n",
			opts.Scale, opts.Sim.Phases, opts.Sim.PhaseInstr, opts.Sim.TimedInstr,
			r.Exec().Jobs())
	}
	var timings []benchExperiment
	for _, id := range ids {
		t0 := time.Now()
		prevWindows := r.Exec().Metrics().WindowsDone
		table, err := r.ByID(id)
		if err != nil {
			return fail(err)
		}
		secs := time.Since(t0).Seconds()
		windows := r.Exec().Metrics().WindowsDone - prevWindows
		wps := 0.0
		if secs > 0 {
			wps = float64(windows) / secs
		}
		timings = append(timings, benchExperiment{ID: id, Seconds: secs, Windows: windows, WindowsPerSec: wps})
		var out string
		if *chart >= 0 {
			out, err = table.BarChart(*chart, 48)
		} else {
			out, err = table.Format(*format)
		}
		if err != nil {
			return fail(err)
		}
		if suite {
			out += "\n"
		}
		fmt.Print(out)
	}
	elapsed := time.Since(start)
	m := r.Exec().Metrics()
	if suite {
		fmt.Printf("completed in %v (%d runs, %d windows, cache %d hit / %d miss)\n",
			elapsed.Round(time.Second), m.RunsDone, m.WindowsDone, m.CacheHits, m.CacheMisses)
	}
	if cli.Metrics != "" {
		if err := r.WriteManifest(cli.Metrics); err != nil {
			return fail(err)
		}
	}
	if err := r.WriteTrace(); err != nil {
		return fail(err)
	}
	if *benchJSON != "" {
		report := benchReport{
			Timestamp:    start.UTC().Format(time.RFC3339),
			Quick:        cli.Quick,
			Scale:        opts.Scale,
			Jobs:         r.Exec().Jobs(),
			SuiteSeconds: elapsed.Seconds(),
			CacheHits:    m.CacheHits,
			CacheMisses:  m.CacheMisses,
			WindowsDone:  m.WindowsDone,
			Experiments:  timings,
		}
		if report.SuiteSeconds > 0 {
			report.WindowsPerSec = float64(report.WindowsDone) / report.SuiteSeconds
		}
		b, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("-benchjson: %w", err))
		}
	}
	return exitOK
}
