package starnuma

// One benchmark per table/figure of the paper's evaluation (§V). Each
// bench regenerates its artifact at a reduced scale and reports the
// headline quantity via b.ReportMetric; run with -v to see the full
// tables. The shared runner memoises simulations, so benches that share
// configurations (fig8a/b/c, tab4, ...) pay for them once.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig8aSpeedup -v

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/evtrace"
	"starnuma/internal/exp"
	"starnuma/internal/memdev"
	"starnuma/internal/sim"
	"starnuma/internal/workload"
)

// benchOptions is the scale used by all root benches: small enough that
// the full set completes in a few minutes, large enough that the
// paper's shape is visible.
func benchOptions() exp.Options {
	o := exp.Quick()
	o.Scale = 0.125
	return o
}

var (
	runnerOnce sync.Once
	runner     *exp.Runner
)

func sharedRunner() *exp.Runner {
	runnerOnce.Do(func() { runner = exp.NewRunner(benchOptions()) })
	return runner
}

// cell parses a numeric table cell ("1.54x", "48.0%", "360ns").
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%"), "ns")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("unparseable cell %q", s)
	}
	return v
}

// lastRow returns the table's final row (gmean/mean summaries).
func lastRow(t *exp.Table) []string { return t.Rows[len(t.Rows)-1] }

func runTable(b *testing.B, f func() (*exp.Table, error)) *exp.Table {
	b.Helper()
	var tbl *exp.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = f()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tbl.Render())
	return tbl
}

// BenchmarkFig2SharingBFS regenerates Fig. 2: BFS page sharing-degree
// and access distributions.
func BenchmarkFig2SharingBFS(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig2)
	// Accesses to 16-shared pages (paper: 36%).
	b.ReportMetric(cell(b, tbl.Rows[len(tbl.Rows)-1][4]), "%accesses-16-shared")
}

// BenchmarkFig13SharingTC regenerates Fig. 13: TC distributions.
func BenchmarkFig13SharingTC(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig13)
	b.ReportMetric(cell(b, tbl.Rows[len(tbl.Rows)-1][2]), "%pages-16-shared")
}

// BenchmarkFig3CXLLatency regenerates Fig. 3: the pool access latency
// budget.
func BenchmarkFig3CXLLatency(b *testing.B) {
	tbl := runTable(b, func() (*exp.Table, error) { return exp.Fig3(), nil })
	b.ReportMetric(cell(b, tbl.Rows[6][1]), "ns-end-to-end")
}

// BenchmarkFig4BlockTransfer regenerates Fig. 4: 3-hop vs 4-hop block
// transfer latency.
func BenchmarkFig4BlockTransfer(b *testing.B) {
	tbl := runTable(b, func() (*exp.Table, error) { return exp.Fig4(), nil })
	b.ReportMetric(cell(b, tbl.Rows[0][1]), "ns-3hop")
	b.ReportMetric(cell(b, tbl.Rows[1][1]), "ns-4hop")
}

// BenchmarkTable3WorkloadIPC regenerates Table III: per-workload IPC and
// MPKI on single-socket and 16-socket systems.
func BenchmarkTable3WorkloadIPC(b *testing.B) {
	tbl := runTable(b, sharedRunner().Table3)
	// POA's 16-socket IPC should match its single-socket IPC (paper:
	// 0.68 in both columns).
	last := lastRow(tbl)
	b.ReportMetric(cell(b, last[1]), "ipc16-"+last[0])
}

// BenchmarkFig8aSpeedup regenerates Fig. 8a: StarNUMA speedup with T16
// and T0 trackers (paper: 1.54x and 1.35x geometric mean).
func BenchmarkFig8aSpeedup(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig8a)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-speedup-T16")
	b.ReportMetric(cell(b, gm[2]), "gmean-speedup-T0")
}

// BenchmarkFig8bAMAT regenerates Fig. 8b: AMAT decomposition (paper:
// 48% average AMAT reduction).
func BenchmarkFig8bAMAT(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig8b)
	b.ReportMetric(cell(b, lastRow(tbl)[7]), "%amat-reduction")
}

// BenchmarkFig8cBreakdown regenerates Fig. 8c: the memory access type
// breakdown.
func BenchmarkFig8cBreakdown(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig8c)
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTable4PoolMigrations regenerates Table IV: the fraction of
// migrations targeting the pool (paper gmean excl. POA: 83%).
func BenchmarkTable4PoolMigrations(b *testing.B) {
	tbl := runTable(b, sharedRunner().Table4)
	// BFS row (paper: 100%).
	for _, row := range tbl.Rows {
		if row[0] == "BFS" {
			b.ReportMetric(cell(b, row[1]), "%BFS-to-pool")
		}
	}
}

// BenchmarkFig9Oracle regenerates Fig. 9: the oracle policy's static
// placement vs dynamic migration.
func BenchmarkFig9Oracle(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig9)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-baseline-static")
	b.ReportMetric(cell(b, gm[2]), "gmean-starnuma-static")
}

// BenchmarkFig10PoolLatency regenerates Fig. 10: sensitivity to the CXL
// latency penalty (paper: 1.54x -> 1.34x at 190ns).
func BenchmarkFig10PoolLatency(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig10)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-100ns")
	b.ReportMetric(cell(b, gm[2]), "gmean-190ns")
}

// BenchmarkFig11Bandwidth regenerates Fig. 11: bandwidth provisioning
// (ISO-BW, 2xBW, Half-BW).
func BenchmarkFig11Bandwidth(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig11)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-isobw")
	b.ReportMetric(cell(b, gm[2]), "gmean-2xbw")
	b.ReportMetric(cell(b, gm[3]), "gmean-halfbw")
	b.ReportMetric(cell(b, gm[4]), "gmean-starnuma")
}

// BenchmarkFig12PoolCapacity regenerates Fig. 12: pool capacity
// sensitivity (paper: 1.54x -> 1.48x at 1/17).
func BenchmarkFig12PoolCapacity(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig12)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-1/5")
	b.ReportMetric(cell(b, gm[2]), "gmean-1/17")
}

// BenchmarkFig14SimConfigs regenerates Fig. 14: methodology robustness
// under SC2 (3x window) and SC3 (2x system scale).
func BenchmarkFig14SimConfigs(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig14)
	for _, row := range tbl.Rows {
		if row[0] == "BFS" {
			b.ReportMetric(cell(b, row[1]), "BFS-SC1")
			b.ReportMetric(cell(b, row[3]), "BFS-SC3")
		}
	}
}

// BenchmarkAblationMigrationLimit sweeps Algorithm 1's per-phase
// migration limit (the paper explores 0-256K pages, §IV-C) on BFS.
func BenchmarkAblationMigrationLimit(b *testing.B) {
	for _, limit := range []int{0, 512, 4096, 32768} {
		limit := limit
		b.Run("limit="+strconv.Itoa(limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Sim.Migration.MigrationLimit = limit
				o.Workloads = []string{"BFS"}
				r := exp.NewRunner(o)
				tbl, err := r.Fig8a()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell(b, tbl.Rows[0][1]), "speedup")
			}
		})
	}
}

// BenchmarkAblationFirstTouchVsOracle compares first-touch + dynamic
// migration against oracular static placement on the baseline
// architecture (the paper's key negative result: no placement helps the
// baseline, because vagabond pages have no good home).
func BenchmarkAblationFirstTouchVsOracle(b *testing.B) {
	tbl := runTable(b, sharedRunner().Fig9)
	// Baseline+static gmean should hover around 1.0x (paper Fig. 9).
	b.ReportMetric(cell(b, lastRow(tbl)[1]), "gmean-baseline-static")
}

// BenchmarkExtReplication regenerates the §V-F extension study:
// replication vs pooling, including the naive read-write failure case.
func BenchmarkExtReplication(b *testing.B) {
	tbl := runTable(b, sharedRunner().ExtReplication)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-repl")
	b.ReportMetric(cell(b, gm[4]), "gmean-starnuma+repl")
}

// BenchmarkExt32Sockets regenerates the §III-B extension study:
// StarNUMA at 32 sockets behind a CXL switch.
func BenchmarkExt32Sockets(b *testing.B) {
	tbl := runTable(b, sharedRunner().Ext32Sockets)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[2]), "gmean-32socket")
}

// BenchmarkAblationRegionSize sweeps the tracking/migration granularity
// (§III-D4 discusses region sizing; the paper uses 512KB = 128 pages,
// scaled here).
func BenchmarkAblationRegionSize(b *testing.B) {
	for _, pages := range []int{8, 32, 128} {
		pages := pages
		b.Run("regionPages="+strconv.Itoa(pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Sim.RegionPages = pages
				o.Workloads = []string{"BFS"}
				tbl, err := exp.NewRunner(o).Fig8a()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell(b, tbl.Rows[0][1]), "speedup")
			}
		})
	}
}

// BenchmarkAblationPingPong toggles Algorithm 1's ping-pong suppression.
func BenchmarkAblationPingPong(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "suppressed"
		if disable {
			name = "unsuppressed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Sim.Migration.DisablePingPong = disable
				o.Workloads = []string{"Masstree"}
				tbl, err := exp.NewRunner(o).Fig8a()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell(b, tbl.Rows[0][1]), "speedup")
			}
		})
	}
}

// BenchmarkAblationDirectBT forces pool-home block transfers onto the
// direct owner→requester path, ablating Fig. 4's 4-hop design point.
func BenchmarkAblationDirectBT(b *testing.B) {
	for _, direct := range []bool{false, true} {
		direct := direct
		name := "4hop-via-pool"
		if direct {
			name = "forced-direct"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Sim.ForceDirectBT = direct
				o.Workloads = []string{"Masstree"}
				tbl, err := exp.NewRunner(o).Fig8a()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell(b, tbl.Rows[0][1]), "speedup")
			}
		})
	}
}

// BenchmarkExtSoftwareTracking regenerates the §III-D1 extension study:
// hardware tracking vs OS page-poisoning samples.
func BenchmarkExtSoftwareTracking(b *testing.B) {
	tbl := runTable(b, sharedRunner().ExtSoftwareTracking)
	gm := lastRow(tbl)
	b.ReportMetric(cell(b, gm[1]), "gmean-hardware")
	b.ReportMetric(cell(b, gm[2]), "gmean-sample5pct")
}

// BenchmarkExtDrift regenerates the drift extension: dynamic migration
// vs static oracle under non-stationary page affinity.
func BenchmarkExtDrift(b *testing.B) {
	tbl := runTable(b, sharedRunner().ExtDrift)
	last := lastRow(tbl)
	b.ReportMetric(cell(b, last[2]), "static-oracle-at-max-drift")
}

// BenchmarkAblationBankedDRAM compares the simple fixed-latency DRAM
// channel model against the open-page bank model on BFS.
func BenchmarkAblationBankedDRAM(b *testing.B) {
	for _, banked := range []bool{false, true} {
		banked := banked
		name := "simple"
		if banked {
			name = "banked"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Workloads = []string{"BFS"}
				r := exp.NewRunner(o)
				if banked {
					// exp constructs systems internally; the banked
					// variant is exercised directly through core.
					spec := mustSpec(b, o, "BFS")
					sys := core.StarNUMASystem()
					hit, miss := memdev.DefaultBankLatencies()
					sys.SocketMem.BanksPerChannel = 8
					sys.SocketMem.RowHitLatency = hit
					sys.SocketMem.RowMissLatency = miss
					res, err := core.Run(sys, o.Sim, spec)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.IPC, "ipc")
					continue
				}
				tbl, err := r.Fig8a()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(cell(b, tbl.Rows[0][1]), "speedup")
			}
		})
	}
}

func mustSpec(b *testing.B, o exp.Options, name string) workload.Spec {
	b.Helper()
	spec, err := workload.ByName(name, o.Scale)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

var _ = core.BaselineSystem // documentation anchor: benches drive internal/core via internal/exp

// BenchmarkEvtraceDisabled pins the tracing-off hot path at zero
// allocations: a nil *evtrace.Buffer must make Span/Instant free, so
// untraced simulations pay nothing for the instrumentation points.
func BenchmarkEvtraceDisabled(b *testing.B) {
	var trc *evtrace.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trc.Span("window", "w", "sim", 0, sim.Microsecond)
		trc.Instant("migrate", "decide", "stepB", 0)
	}
	if trc.Len() != 0 {
		b.Fatal("nil buffer recorded events")
	}
}
