package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"starnuma/internal/exp"
	"starnuma/internal/metrics"
)

const statUsage = `usage: starnuma stat <command> [flags] FILE...

Commands:
  dump FILE            full metric dump, one section per run
  diff FILE1 FILE2     metric-by-metric comparison of the two files' combined runs
  top [-n N] FILE      hottest interconnect links by wire occupancy
      -n N             number of links to show (<= 0 shows all; default 10)

FILE may be a run manifest written by starnuma -metrics, a result-cache
entry (.starnuma-cache/*.json), or a bare JSON-encoded core.Result.
Metrics print in sorted name order, so two identical runs diff empty.
`

// statMain implements the `starnuma stat` subcommands over the metric
// snapshots (core.Result.Metrics, collected with -metrics) of any file
// the shared run decoder reads.
func statMain(args []string) int {
	return dispatch("stat", statUsage, args, map[string]func([]string) int{
		"dump": statDump,
		"diff": statDiff,
		"top":  statTop,
	})
}

func statDump(args []string) int {
	if len(args) != 1 {
		fmt.Fprint(os.Stderr, statUsage)
		return exitUsage
	}
	runs, ok := loadRuns("stat", args[0])
	if !ok {
		return exitRuntime
	}
	fmt.Print(dumpText(runs))
	return exitOK
}

func statDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprint(os.Stderr, statUsage)
		return exitUsage
	}
	a, ok := loadRuns("stat", args[0])
	if !ok {
		return exitRuntime
	}
	b, ok := loadRuns("stat", args[1])
	if !ok {
		return exitRuntime
	}
	fmt.Print(diffText(combined(a), combined(b)))
	return exitOK
}

func statTop(args []string) int {
	fs := flag.NewFlagSet("starnuma stat top", flag.ContinueOnError)
	n := fs.Int("n", 10, "number of links to show (<= 0 shows all)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fmt.Fprint(os.Stderr, statUsage)
		return exitUsage
	}
	runs, ok := loadRuns("stat", fs.Arg(0))
	if !ok {
		return exitRuntime
	}
	fmt.Print(topText(combined(runs), *n))
	return exitOK
}

// combined merges every run's snapshot (in listed order) into one.
func combined(runs []exp.ManifestRun) *metrics.Snapshot {
	s := &metrics.Snapshot{}
	for _, r := range runs {
		s.Merge(r.Metrics)
	}
	return s
}

// dumpText renders every run's full metric dump, one section per run.
func dumpText(runs []exp.ManifestRun) string {
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "== %s ==\n", r.Key)
		if r.Metrics.Empty() {
			b.WriteString("(no metrics; run with -metrics to collect)\n")
		} else {
			b.WriteString(r.Metrics.Dump())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// diffText compares two combined snapshots counter by counter and gauge
// by gauge, reporting only entries that differ. Metrics present on one
// side only show "-" for the missing side.
func diffText(a, b *metrics.Snapshot) string {
	var out strings.Builder
	names := union(a.Names(), b.Names())
	for _, n := range names {
		av, aok := lookupValue(a, n)
		bv, bok := lookupValue(b, n)
		if aok && bok && av == bv {
			continue
		}
		as, bs := "-", "-"
		if aok {
			as = av
		}
		if bok {
			bs = bv
		}
		fmt.Fprintf(&out, "%-48s %20s -> %s\n", n, as, bs)
	}
	if out.Len() == 0 {
		return "no differences\n"
	}
	return out.String()
}

// lookupValue renders metric n's value in s, whichever section holds it.
func lookupValue(s *metrics.Snapshot, n string) (string, bool) {
	if s == nil {
		return "", false
	}
	if v, ok := s.Counters[n]; ok {
		return fmt.Sprintf("%d", v), true
	}
	if v, ok := s.Gauges[n]; ok {
		return fmt.Sprintf("%g", v), true
	}
	if h, ok := s.Histograms[n]; ok {
		return fmt.Sprintf("count=%d mean=%.3f", h.Count, h.Mean()), true
	}
	if p, ok := s.Series[n]; ok {
		return fmt.Sprintf("%d points", len(p)), true
	}
	return "", false
}

// union merges two sorted name lists, deduplicated.
func union(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, n := range append(append([]string{}, a...), b...) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// topText ranks the interconnect links of a combined snapshot by wire
// occupancy ("link/.../busy_ps" counters), hottest first.
func topText(s *metrics.Snapshot, n int) string {
	type hot struct {
		name string
		busy uint64
	}
	var links []hot
	for _, k := range s.Names() {
		if strings.HasPrefix(k, "link/") && strings.HasSuffix(k, "/busy_ps") {
			links = append(links, hot{name: strings.TrimSuffix(k, "/busy_ps"), busy: s.Counters[k]})
		}
	}
	sort.SliceStable(links, func(i, j int) bool {
		if links[i].busy != links[j].busy {
			return links[i].busy > links[j].busy
		}
		return links[i].name < links[j].name
	})
	if len(links) == 0 {
		return "no link metrics (run with -metrics to collect)\n"
	}
	if n > 0 && len(links) > n {
		links = links[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %14s %10s\n", "link", "busy_ps", "queued_ps", "tx_bytes", "messages")
	for _, l := range links {
		fmt.Fprintf(&b, "%-40s %14d %14d %14d %10d\n", l.name, l.busy,
			s.Counters[l.name+"/queued_ps"], s.Counters[l.name+"/tx_bytes"], s.Counters[l.name+"/messages"])
	}
	return b.String()
}
