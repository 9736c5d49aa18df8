// Command perfbench is the simulator's same-host benchmark. It runs one
// workload (fig8a-cold, policy-sweep or trace-replay) as a series of
// rounds, each a fresh process doing one cold set-up and one measured
// pass over the workload's pipelines, and prints the metrics as one JSON
// object on the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload policy-sweep --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"starnuma/internal/core"
)

// outDir holds the benchmark's run artifacts (span dumps, reports,
// scratch trace files), relative to the working directory.
const outDir = ".bench_out"

// roundTimeout bounds one round process; a hung round is killed and
// counted as failed.
const roundTimeout = 150 * time.Second

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: fig8a-cold, policy-sweep or trace-replay")
	seed := fs.Int64("seed", referenceSeed, "workload seed, added to every suite spec's seed")
	seconds := fs.Int("seconds", 40, "measurement budget: rounds start while they fit in it")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced round instead of the end-to-end ones")
	round := fs.String("round", "", "internal: run one round of this kind (setup, plain or traced) and print its report")
	spawnNS := fs.Int64("spawn-ns", 0, "internal: the parent's clock when it started this round")
	genCheck := fs.Bool("gen-check", false, "internal: also compare a trace replay with the generator path")
	updateRefs := fs.String("update-refs", "", "recompute the reference digests at the reference seed into this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *updateRefs != "" {
		if err := writeReferences(*updateRefs); err != nil {
			fatal(err)
		}
		return
	}
	if _, _, err := pipelinesFor(*wl, *seed); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *round != "" {
		rep, err := runRound(roundOpts{workload: *wl, seed: *seed, kind: *round,
			genCheck: *genCheck, spawnNS: *spawnNS, outDir: outDir})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	res, err := orchestrate(*wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed across rounds — each
// pipeline run and each set-up-only round is one — and checks that every
// round reproduced the first one's digests.
type tally struct {
	attempted, failed int
	first             map[string]string
	notes             []string
}

func (t *tally) add(name string, pipelines int, rep *roundReport, err error) {
	t.attempted += pipelines
	if err != nil {
		t.failed += pipelines
		t.notes = append(t.notes, fmt.Sprintf("%s: %v", name, err))
		return
	}
	failed := map[string]bool{}
	for _, label := range sortedKeys(rep.Failed) {
		failed[label] = true
		t.notes = append(t.notes, fmt.Sprintf("%s: %s: %s", name, label, rep.Failed[label]))
	}
	switch {
	case rep.Digests == nil: // a set-up-only round
	case t.first == nil:
		t.first = rep.Digests
	default:
		for _, label := range sortedKeys(t.first) {
			if d, ok := rep.Digests[label]; ok && d != t.first[label] && !failed[label] {
				failed[label] = true
				t.notes = append(t.notes, fmt.Sprintf("%s: %s: digest differs from the first round", name, label))
			}
		}
	}
	t.failed += len(failed)
}

// spawnRound runs one round in a fresh process: the stream cache, the
// ingest memo and the generator pools are process-global, so only a new
// process starts cold.
func spawnRound(wl string, seed int64, kind string, genCheck bool) (*roundReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed, 10), "-round", kind,
		"-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if genCheck {
		args = append(args, "-gen-check")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round: %w", kind, err)
	}
	rep := &roundReport{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("%s round report: %w", kind, err)
	}
	return rep, nil
}

// setupRounds is how many extra fresh processes only set up, so that
// setup_s is a median over at least three cold set-ups in every run.
const setupRounds = 1

// orchestrate runs the rounds of one benchmark invocation and reduces
// them to the reported metrics. Untraced, set-up-only rounds run first,
// then measured rounds; traced, one plain and one traced round run, and
// the per-layer metrics come from the traced one.
func orchestrate(wl string, seed int64, seconds int, traced bool) (*result, error) {
	pipes, _, err := pipelinesFor(wl, seed)
	if err != nil {
		return nil, err
	}
	var t tally
	var setups []float64
	for i := 0; !traced && i < setupRounds; i++ {
		rep, err := spawnRound(wl, seed, "setup", false)
		t.add("set-up "+strconv.Itoa(i+1), 1, rep, err)
		if err != nil {
			break
		}
		setups = append(setups, rep.SetupS)
	}
	var reps []*roundReport
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	// Untraced, at least two measured rounds, so that every run checks
	// that a fresh process reproduces the results, then more while the
	// next one is expected to end within the budget.
	another := func() bool {
		switch n := len(reps); {
		case traced:
			return n == 0
		case n < 2:
			return true
		default:
			elapsed := time.Since(start)
			return elapsed+elapsed/time.Duration(n) <= budget
		}
	}
	for another() {
		name := "round " + strconv.Itoa(len(reps)+1)
		rep, err := spawnRound(wl, seed, "plain", len(reps) == 0 && wl == wlTraceReplay)
		t.add(name, len(pipes), rep, err)
		if err != nil {
			break
		}
		reps = append(reps, rep)
	}
	res := &result{Metrics: map[string]metric{}}
	var tr *roundReport
	if traced && len(reps) > 0 {
		rep, err := spawnRound(wl, seed, "traced", false)
		t.add("traced round", len(pipes), rep, err)
		if err == nil {
			tr = rep
			for _, name := range sortedKeys(rep.Layers) {
				res.Metrics[name] = metric{rep.Layers[name], layerUnit(name)}
			}
			res.Metrics["spans.traced_overhead_pct"] = metric{100 * (rep.MeasuredS/reps[0].MeasuredS - 1), "%"}
		}
	}
	if !traced && len(reps) > 0 {
		col := func(f func(*roundReport) float64) float64 {
			var xs []float64
			for _, r := range reps {
				xs = append(xs, f(r))
			}
			return median(xs)
		}
		for _, r := range reps {
			setups = append(setups, r.SetupS)
		}
		res.Metrics["sim_instr_per_s"] = metric{col(func(r *roundReport) float64 { return float64(r.Instructions) / r.MeasuredS }), "instr/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["retained_heap_mb"] = metric{col(func(r *roundReport) float64 { return r.HeapMB }), "MB"}
		res.Metrics["fig8a_gmean_accuracy_pct"] = metric{reps[0].AccuracyPct, "%"}
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && len(t.notes) == 0
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", n)
	}
	if err := writeReport(wl, seed, traced, reps, tr, t.notes); err != nil {
		return nil, err
	}
	return res, nil
}

// writeReport keeps every round's raw figures with the host and build
// they were measured on, and prints the same record on standard output
// ahead of the result line.
func writeReport(wl string, seed int64, traced bool, reps []*roundReport, tr *roundReport, notes []string) error {
	b, err := json.Marshal(map[string]any{
		"workload": wl, "seed": seed, "traced": traced, "environment": environment(),
		"rounds": reps, "traced_round": tr, "failures": notes,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", wl, seed, map[bool]int{false: 0, true: 1}[traced])
	return os.WriteFile(outDir+"/"+name, b, 0o644)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_s", "s"}, {"_ms", "ms"}, {"_ns", "ns"}, {"ns_per_access", "ns"}, {"ns_per_op", "ns"},
		{"ns_per_event", "ns"}, {"ns_per_miss", "ns"}, {"ns_per_send", "ns"}, {"ns_per_record", "ns"},
		{"_pct", "%"}, {"_mb", "MB"}, {"_frac", "share"}, {"_ratio", "share"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}

// writeReferences recomputes every pipeline's digest at the reference
// seed on the generator path (core.Run) and writes them as JSON.
func writeReferences(path string) error {
	refs := map[string]string{}
	for _, wl := range workloadNames {
		pipes, _, err := pipelinesFor(wl, referenceSeed)
		if err != nil {
			return err
		}
		for _, p := range pipes {
			if _, done := refs[p.Label]; done {
				continue
			}
			res, err := core.Run(p.Sys, p.Cfg, p.Spec)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Label, err)
			}
			if refs[p.Label], err = digest(res); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
