// Command benchgate compares a fresh `starnuma -benchjson` report against
// a committed baseline and fails when step-C simulation throughput
// (windows per second) regressed beyond tolerance.
//
// Usage:
//
//	benchgate [-max-drop 0.10] [-warn-gain 0.10] [-max-exp-drop 0.25] baseline.json fresh.json
//
// The gate reads the overall windows_per_sec of both reports (deriving
// it from windows_done / suite_seconds for baselines written before the
// field existed), and:
//
//   - exits 1 when the fresh throughput is more than -max-drop below
//     the baseline (a regression);
//   - warns on stderr when it is more than -warn-gain above it — a
//     signal the committed baseline is stale and should be regenerated
//     so the gate keeps teeth;
//   - exits 2 on malformed input (unreadable files, zero-window runs),
//     so CI never confuses "could not measure" with "fast enough".
//
// It also lines up the two reports' per-experiment entries and prints
// each experiment's throughput delta. Experiments with zero windows on
// either side simulated nothing (in-suite memo recalls) and are
// skipped, not compared; -max-exp-drop (off by default) turns a
// per-experiment drop beyond the fraction into a failure too.
//
// Both reports must come from cache-disabled runs: a cache hit does no
// step-C work, making windows_per_sec meaningless (and zero-window
// reports are rejected). docs/PERFORMANCE.md documents the measurement
// methodology.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report is the subset of the starnuma -benchjson document the gate reads.
type report struct {
	SuiteSeconds  float64      `json:"suite_seconds"`
	WindowsDone   int64        `json:"windows_done"`
	WindowsPerSec float64      `json:"windows_per_sec"`
	Experiments   []experiment `json:"experiments"`
}

// experiment is one per-experiment timing entry. Entries with zero
// windows did no step-C work (every run recalled from the in-suite
// memo); their throughput is undefined and the gate skips them.
type experiment struct {
	ID            string  `json:"id"`
	Windows       int64   `json:"windows"`
	WindowsPerSec float64 `json:"windows_per_sec"`
}

// throughput returns the report's overall windows/sec, deriving it for
// baselines that predate the windows_per_sec field.
func throughput(r report) (float64, error) {
	if r.WindowsDone <= 0 {
		return 0, fmt.Errorf("report has no simulated windows (cache-enabled run?)")
	}
	if r.SuiteSeconds <= 0 {
		return 0, fmt.Errorf("report has non-positive suite_seconds %v", r.SuiteSeconds)
	}
	if r.WindowsPerSec > 0 {
		return r.WindowsPerSec, nil
	}
	return float64(r.WindowsDone) / r.SuiteSeconds, nil
}

// verdict compares fresh against base throughput. fail means the gate
// should exit non-zero; warn carries a non-fatal staleness message.
func verdict(base, fresh, maxDrop, warnGain float64) (fail bool, warn string, summary string) {
	delta := fresh/base - 1
	summary = fmt.Sprintf("windows/sec: baseline %.2f, fresh %.2f (%+.1f%%)", base, fresh, delta*100)
	if delta < -maxDrop {
		return true, "", summary
	}
	if delta > warnGain {
		warn = fmt.Sprintf("fresh throughput is %.1f%% above the committed baseline; "+
			"regenerate the baseline so future regressions are measured against it", delta*100)
	}
	return false, warn, summary
}

// compareExperiments lines up the two reports' per-experiment entries
// by ID and reports each delta. Entries with zero windows on either
// side are skipped — not treated as infinitely slow or malformed — and
// counted instead. When maxExpDrop > 0, any compared experiment whose
// throughput dropped more than that fraction fails the gate.
func compareExperiments(base, fresh report, maxExpDrop float64) (lines []string, skipped int, fail bool) {
	bySrc := make(map[string]experiment, len(base.Experiments))
	for _, e := range base.Experiments {
		bySrc[e.ID] = e
	}
	for _, f := range fresh.Experiments {
		b, ok := bySrc[f.ID]
		if !ok {
			continue
		}
		if b.Windows == 0 || f.Windows == 0 || b.WindowsPerSec <= 0 || f.WindowsPerSec <= 0 {
			skipped++
			continue
		}
		delta := f.WindowsPerSec/b.WindowsPerSec - 1
		mark := ""
		if maxExpDrop > 0 && delta < -maxExpDrop {
			mark = "  REGRESSED"
			fail = true
		}
		lines = append(lines, fmt.Sprintf("  %-12s baseline %8.2f, fresh %8.2f (%+.1f%%)%s",
			f.ID, b.WindowsPerSec, f.WindowsPerSec, delta*100, mark))
	}
	return lines, skipped, fail
}

func readReport(path string) (report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	var (
		maxDrop    = flag.Float64("max-drop", 0.10, "fail when windows/sec drops more than this fraction below baseline")
		warnGain   = flag.Float64("warn-gain", 0.10, "warn when windows/sec exceeds baseline by more than this fraction")
		maxExpDrop = flag.Float64("max-exp-drop", 0, "also fail when any single experiment drops more than this fraction (0 = report only)")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-max-drop F] [-warn-gain F] baseline.json fresh.json")
		os.Exit(2)
	}
	fail := false
	var rates [2]float64
	var reports [2]report
	for i, path := range flag.Args() {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(2)
		}
		rate, err := throughput(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
			os.Exit(2)
		}
		rates[i] = rate
		reports[i] = r
	}
	failed, warn, summary := verdict(rates[0], rates[1], *maxDrop, *warnGain)
	fmt.Println(summary)
	lines, skipped, expFailed := compareExperiments(reports[0], reports[1], *maxExpDrop)
	for _, l := range lines {
		fmt.Println(l)
	}
	if skipped > 0 {
		fmt.Printf("  (%d zero-window experiments skipped)\n", skipped)
	}
	if warn != "" {
		fmt.Fprintf(os.Stderr, "benchgate: warning: %s\n", warn)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: throughput dropped more than %.0f%% below baseline\n", *maxDrop*100)
		fail = true
	}
	if expFailed {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: an experiment dropped more than %.0f%% below baseline\n", *maxExpDrop*100)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
