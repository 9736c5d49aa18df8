package main

import (
	"flag"
	"fmt"
	"os"

	"starnuma/internal/attrib"
	"starnuma/internal/exp"
)

const profUsage = `usage: starnuma prof <command> [flags] <manifest.json> [b.json]

Commands:
  report  per-run stall breakdown by category (and socket)
  diff    category share shift between two manifests or two groups
  flame   folded stacks (flamegraph.pl format) or speedscope JSON

Flags:
  report: [-sockets] [-require] manifest.json
      -sockets   also print the per-socket stall split
      -require   exit 3 unless every profile conserves stall time exactly
  diff:   [-a substr] [-b substr] a.json [b.json]
      -a/-b      group runs by key/workload/policy substring; with one
                 file both groups come from it, with two files -a
                 filters the first and -b the second
  flame:  [-speedscope out.json] manifest.json
      -speedscope  write a speedscope sampled profile to this file
                   instead of printing folded stacks

Stall profiles ride in the run manifest of any experiment run with
-metrics, e.g. starnuma -exp fig8a -quick -metrics manifest.json. Result
cache entries and bare results with a profile are read too.
`

// profMain implements the `starnuma prof` subcommands over the stall
// attribution profiles (internal/attrib) carried by run manifests.
func profMain(args []string) int {
	return dispatch("prof", profUsage, args, map[string]func([]string) int{
		"report": profReport,
		"diff":   profDiff,
		"flame":  profFlame,
	})
}

// loadProfiles reads the labelled stall profiles of one file.
func loadProfiles(path string) ([]attrib.Run, bool) {
	runs, ok := loadRuns("prof", path)
	return exp.Profiles(runs), ok
}

func profReport(args []string) int {
	fs := flag.NewFlagSet("starnuma prof report", flag.ContinueOnError)
	sockets := fs.Bool("sockets", false, "also print the per-socket stall split")
	require := fs.Bool("require", false, "exit 3 unless every profile conserves stall time exactly")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprint(os.Stderr, profUsage)
		return exitUsage
	}
	runs, ok := loadProfiles(fs.Arg(0))
	if !ok {
		return exitRuntime
	}
	code := exitOK
	if *require {
		for _, r := range runs {
			if err := r.Profile.CheckConservation(); err != nil {
				fmt.Fprintf(os.Stderr, "starnuma prof: run %s: %v\n", r.Key, err)
				code = exitAssertion
			}
		}
	}
	fmt.Print(attrib.RenderReport(runs, *sockets))
	return code
}

func profDiff(args []string) int {
	fs := flag.NewFlagSet("starnuma prof diff", flag.ContinueOnError)
	aSub := fs.String("a", "", "substring selecting the A group (key/workload/policy)")
	bSub := fs.String("b", "", "substring selecting the B group (key/workload/policy)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 && fs.NArg() != 2 {
		fmt.Fprint(os.Stderr, profUsage)
		return exitUsage
	}
	if fs.NArg() == 1 && *aSub == "" && *bSub == "" {
		fmt.Fprintln(os.Stderr, "starnuma prof diff: one manifest needs -a and/or -b to form two groups")
		return exitUsage
	}
	ra, ok := loadProfiles(fs.Arg(0))
	if !ok {
		return exitRuntime
	}
	rb := ra
	labelA, labelB := fs.Arg(0), fs.Arg(0)
	if fs.NArg() == 2 {
		if rb, ok = loadProfiles(fs.Arg(1)); !ok {
			return exitRuntime
		}
		labelB = fs.Arg(1)
	}
	if *aSub != "" {
		labelA += ":" + *aSub
	}
	if *bSub != "" {
		labelB += ":" + *bSub
	}
	ta, runsA, skipA := attrib.GroupTotals(ra, *aSub)
	tb, runsB, skipB := attrib.GroupTotals(rb, *bSub)
	if runsA == 0 || runsB == 0 {
		fmt.Fprintf(os.Stderr, "starnuma prof diff: empty group (a: %d runs, b: %d runs)\n", runsA, runsB)
		return exitRuntime
	}
	if skipA+skipB > 0 {
		fmt.Fprintf(os.Stderr, "starnuma prof diff: skipped %d runs with mismatched categories\n", skipA+skipB)
	}
	fmt.Print(attrib.RenderDiff(labelA, labelB, ta, tb))
	return exitOK
}

func profFlame(args []string) int {
	fs := flag.NewFlagSet("starnuma prof flame", flag.ContinueOnError)
	speedscope := fs.String("speedscope", "", "write a speedscope sampled profile to this file")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprint(os.Stderr, profUsage)
		return exitUsage
	}
	runs, ok := loadProfiles(fs.Arg(0))
	if !ok {
		return exitRuntime
	}
	if *speedscope == "" {
		fmt.Print(attrib.RenderFolded(runs))
		return exitOK
	}
	b, err := attrib.RenderSpeedscope(runs)
	if err == nil {
		err = os.WriteFile(*speedscope, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma prof: %v\n", err)
		return exitRuntime
	}
	return exitOK
}
