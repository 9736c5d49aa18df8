package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"starnuma/internal/exp"
	"starnuma/internal/runner"
	"starnuma/internal/scenario"
)

const scenarioUsage = `usage: starnuma scenario <command> [flags] <file-or-dir>...

Commands:
  run       compile and run scenarios, check their assertions
  validate  parse and compile scenarios without running them
  list      list scenario names and descriptions

Run flags:
  -jobs N         parallel worker slots (0 = GOMAXPROCS)
  -cache DIR      result cache directory (default ` + runner.DefaultCacheDir + `)
  -nocache        disable the persistent result cache
  -progress       report job progress on stderr
  -verdict-dir D  write one <name>.verdict.json manifest per scenario to D
  -v              print every check, not just failures

Arguments name scenario JSON files, or directories whose *.json files
are taken in sorted order.
`

// scenarioMain implements the `starnuma scenario` subcommands.
func scenarioMain(args []string) int {
	return dispatch("scenario", scenarioUsage, args, map[string]func([]string) int{
		"run":      scenarioRun,
		"validate": scenarioValidate,
		"list":     scenarioList,
	})
}

// scenarioFiles expands the file-or-directory arguments into a flat
// file list; directories contribute their *.json files in sorted order.
func scenarioFiles(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no scenario files given")
	}
	var files []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no *.json scenario files", arg)
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// loadScenario reads, parses and compiles one scenario file.
func loadScenario(file string) (*scenario.Compiled, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return c, nil
}

func scenarioValidate(args []string) int {
	files, err := scenarioFiles(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma scenario validate: %v\n", err)
		return exitUsage
	}
	code := exitOK
	for _, file := range files {
		c, err := loadScenario(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid  %v\n", err)
			code = exitUsage
			continue
		}
		fmt.Printf("ok       %s (%s, %d workloads, %d events, %d assertions)\n",
			file, c.Name(), len(c.Specs), len(c.Scenario.Events), len(c.Scenario.Assertions))
	}
	return code
}

func scenarioList(args []string) int {
	files, err := scenarioFiles(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma scenario list: %v\n", err)
		return exitUsage
	}
	code := exitOK
	for _, file := range files {
		c, err := loadScenario(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starnuma scenario list: %v\n", err)
			code = exitUsage
			continue
		}
		fmt.Printf("%-28s %s\n", c.Name(), c.Scenario.Description)
	}
	return code
}

func scenarioRun(args []string) int {
	fs := flag.NewFlagSet("starnuma scenario run", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprint(os.Stderr, scenarioUsage) }
	var (
		jobs       = fs.Int("jobs", 0, "parallel worker slots (0 = GOMAXPROCS)")
		cacheDir   = fs.String("cache", runner.DefaultCacheDir, "result cache directory")
		noCache    = fs.Bool("nocache", false, "disable the persistent result cache")
		progress   = fs.Bool("progress", false, "report job progress on stderr")
		verdictDir = fs.String("verdict-dir", "", "write one <name>.verdict.json manifest per scenario to this directory")
		verbose    = fs.Bool("v", false, "print every check, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	files, err := scenarioFiles(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "starnuma scenario run: %v\n", err)
		return exitUsage
	}

	// Compile everything up front: a broken file fails the whole
	// invocation before any simulation starts.
	compiled := make([]*scenario.Compiled, len(files))
	for i, file := range files {
		c, err := loadScenario(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starnuma scenario run: %v\n", err)
			return exitUsage
		}
		compiled[i] = c
	}
	if *verdictDir != "" {
		if err := os.MkdirAll(*verdictDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "starnuma scenario run: %v\n", err)
			return exitRuntime
		}
	}

	opts := exp.Options{Jobs: *jobs}
	if !*noCache {
		opts.CacheDir = *cacheDir
	}
	if *progress {
		opts.Reporter = runner.NewTerminalReporter(os.Stderr)
	}
	r := exp.NewRunner(opts)

	code := exitOK
	for i, c := range compiled {
		v, err := r.RunScenario(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starnuma scenario run: %s: %v\n", files[i], err)
			return exitRuntime
		}
		fmt.Println(v.Summary())
		if err := printChecks(os.Stdout, files[i], v, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "starnuma scenario run: %v\n", err)
			return exitRuntime
		}
		if *verdictDir != "" {
			b, err := v.Encode()
			if err == nil {
				err = os.WriteFile(filepath.Join(*verdictDir, c.Name()+".verdict.json"), b, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "starnuma scenario run: %v\n", err)
				return exitRuntime
			}
		}
		if !v.Pass {
			code = exitAssertion
		}
	}
	return code
}

// printChecks writes the per-check lines: failures always (anchored to
// the scenario file:line), passes only when verbose.
func printChecks(w io.Writer, file string, v *scenario.Verdict, verbose bool) error {
	for _, chk := range v.Checks {
		if chk.Pass && !verbose {
			continue
		}
		status := "  pass"
		if !chk.Pass {
			status = "  FAIL"
		}
		loc := file
		if chk.Line > 0 {
			loc = fmt.Sprintf("%s:%d", file, chk.Line)
		}
		if _, err := fmt.Fprintf(w, "%s  %s: %s\n", status, loc, chk.Detail); err != nil {
			return err
		}
	}
	if !v.Pass {
		if _, err := fmt.Fprintf(w, "  (got-vs-expected above; re-run with -verdict-dir for the machine-readable manifest)\n"); err != nil {
			return err
		}
	}
	return nil
}
