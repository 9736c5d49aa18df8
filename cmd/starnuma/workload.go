package main

import (
	"flag"
	"fmt"
	"os"

	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

const workloadUsage = `usage: starnuma workload <command> [flags]

Commands:
  show [-workload NAME] [-scale S]
      characterise the synthetic workload models: a one-line summary of
      each (derived core parameters, sharing), or full detail for one
      workload (per-class layout and sharing histogram)
  dump [-workload NAME] [-phase P] [-instr N] [-scale S] [-o out.sntr]
      write one phase of a workload's LLC-miss stream as a binary SNTR
      trace file (the step-A artifact of the methodology, §IV-A1);
      -o defaults to <workload>.p<phase>.sntr

-scale is the footprint scale (default 0.25).
`

// workloadMain implements the `starnuma workload` subcommands over the
// synthetic workload models (internal/workload).
func workloadMain(args []string) int {
	return dispatch("workload", workloadUsage, args, map[string]func([]string) int{
		"show": withErr("workload", workloadShow),
		"dump": withErr("workload", workloadDump),
	})
}

// parseNoArgs parses the flags of a command that takes no positional
// arguments.
func parseNoArgs(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

func workloadShow(args []string) error {
	fs := flag.NewFlagSet("starnuma workload show", flag.ContinueOnError)
	wl := fs.String("workload", "", "detail one workload (default: summarise all)")
	scale := fs.Float64("scale", 0.25, "footprint scale")
	if err := parseNoArgs(fs, args); err != nil {
		return err
	}
	if *wl != "" {
		spec, err := workload.ByName(*wl, *scale)
		if err != nil {
			return err
		}
		showDetail(spec)
		return nil
	}
	fmt.Printf("%-9s %6s %7s %5s %5s %9s %8s %9s\n",
		"workload", "IPC1", "MPKI", "MLP", "IPC0", "pages", "classes", ">8-share%")
	for _, spec := range workload.Suite(*scale) {
		_, accs := spec.SharingHistogram(16)
		var vagabond float64
		for k := 9; k <= 16; k++ {
			vagabond += accs[k]
		}
		fmt.Printf("%-9s %6.2f %7.1f %5d %5.2f %9d %8d %8.0f%%\n",
			spec.Name, spec.SingleSocketIPC, spec.MPKI, spec.MLP,
			spec.ZeroLoadIPC(192), spec.FootprintPages, len(spec.Classes), 100*vagabond)
	}
	return nil
}

func showDetail(spec workload.Spec) {
	fmt.Printf("%s: footprint %d pages (%.0f MB), MPKI %.1f, single-socket IPC %.2f, MLP %d, zero-load IPC %.2f\n\n",
		spec.Name, spec.FootprintPages,
		float64(spec.FootprintPages)*workload.PageBytes/1e6,
		spec.MPKI, spec.SingleSocketIPC, spec.MLP, spec.ZeroLoadIPC(192))

	fmt.Printf("%-12s %8s %9s %10s %9s\n", "class", "pages%", "accesses%", "sharers", "write%")
	for _, c := range spec.Classes {
		fmt.Printf("%-12s %7.1f%% %8.1f%% %7d-%-3d %8.1f%%\n",
			c.Name, 100*c.PageShare, 100*c.AccessShare,
			c.MinSharers, c.MaxSharers, 100*c.WriteFrac)
	}

	pages, accs := spec.SharingHistogram(16)
	fmt.Printf("\n%-10s %8s %10s\n", "sharers", "pages%", "accesses%")
	for _, b := range [][2]int{{1, 1}, {2, 4}, {5, 8}, {9, 15}, {16, 16}} {
		var p, a float64
		for k := b[0]; k <= b[1]; k++ {
			p += pages[k]
			a += accs[k]
		}
		label := fmt.Sprintf("%d", b[0])
		if b[1] != b[0] {
			label = fmt.Sprintf("%d-%d", b[0], b[1])
		}
		fmt.Printf("%-10s %7.1f%% %9.1f%%\n", label, 100*p, 100*a)
	}
}

func workloadDump(args []string) error {
	fs := flag.NewFlagSet("starnuma workload dump", flag.ContinueOnError)
	wl := fs.String("workload", "BFS", "workload name (see: starnuma workload show)")
	phase := fs.Int("phase", 0, "phase index to trace")
	instr := fs.Uint64("instr", 1_000_000, "instructions per core to trace")
	scale := fs.Float64("scale", 0.25, "footprint scale")
	out := fs.String("o", "", "output file (default <workload>.p<phase>.sntr)")
	if err := parseNoArgs(fs, args); err != nil {
		return err
	}
	if *phase < 0 {
		return fmt.Errorf("%w: -phase %d is negative", errUsage, *phase)
	}
	if *instr == 0 {
		return fmt.Errorf("%w: -instr must be positive", errUsage)
	}
	spec, err := workload.ByName(*wl, *scale)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s.p%d.sntr", spec.Name, *phase)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, err := trace.DumpPhase(gen, *phase, *instr, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d records (%d cores, %d pages) to %s\n",
		n, gen.NumCores(), gen.NumPages(), path)
	return nil
}
