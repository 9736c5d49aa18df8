package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/evtrace"
	"starnuma/internal/fault"
	"starnuma/internal/migrate"
	"starnuma/internal/runner"
	"starnuma/internal/topology"
	"starnuma/internal/trace"
	"starnuma/internal/workload"
)

// goldenFile holds one SHA-256 per golden case under a first line
// naming the runner.SchemaVersion the digests were taken at. A refactor
// of the simulator must leave it byte-identical; only a deliberate model
// change may rewrite it, and that change must also bump SchemaVersion so
// stale result-cache entries stop being addressed (the failure message
// prints the new contents).
const goldenFile = "testdata/golden_digests.txt"

// goldenSim is the fixed tiny configuration behind every golden case,
// with all three observability layers on so their outputs are pinned
// too.
func goldenSim() core.SimConfig {
	c := core.DefaultSim()
	c.Phases = 3
	c.PhaseInstr = 200_000
	c.TimedInstr = 20_000
	c.WarmupInstr = 2_000
	c.CollectMetrics = true
	c.Attrib = true
	c.Trace = true
	return c
}

func goldenSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ByName(name, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultDigest hashes everything a run produces: the Result's JSON
// encoding (aggregates, Metrics snapshot, attribution Profile) followed
// by the canonical encoding of its event trace.
func resultDigest(t *testing.T, r *core.Result) string {
	t.Helper()
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	bd := evtrace.NewBuilder()
	bd.Add("", r.Trace)
	tr, err := bd.Build().Encode()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(js)
	h.Write(tr)
	return hex.EncodeToString(h.Sum(nil))
}

// dumpSource writes every phase of spec's generator, each core up to
// budget instructions, to SNTR files and opens them as a replay source.
func dumpSource(t *testing.T, sys core.SystemConfig, cfg core.SimConfig, spec workload.Spec, budget uint64) *trace.Source {
	t.Helper()
	sockets := topology.New(sys.Topology).Sockets()
	gen, err := workload.NewGenerator(spec, sockets, sys.CoresPerSocket)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for ph := 0; ph < cfg.Phases; ph++ {
		path := filepath.Join(dir, fmt.Sprintf("p%d.sntr", ph))
		var buf bytes.Buffer
		if _, err := trace.DumpPhase(gen, ph, budget, &buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	src, err := trace.NewSource(spec, sockets, sys.CoresPerSocket, paths)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestGoldenResultDigests pins the complete output of a handful of tiny
// runs that together cover every message path of the timing model: the
// §V-F replication study (replica reads, write broadcasts, the write
// penalty), the replicating policy, StarNUMA T16 with page migrations,
// the oracle policy's whole-run static placement, a degraded CXL plan (whose fault-injected links take the per-packet
// page-transfer path) and a trace-file replay.
func TestGoldenResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests run the full tiny pipeline")
	}
	type goldenCase struct {
		name  string
		run   func(t *testing.T) *core.Result
		check func(r *core.Result) error
	}
	run := func(sys core.SystemConfig, cfg core.SimConfig, wl string) func(t *testing.T) *core.Result {
		return func(t *testing.T) *core.Result {
			r, err := core.Run(sys, cfg, goldenSpec(t, wl))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	replay := func(budget uint64) func(t *testing.T) *core.Result {
		return func(t *testing.T) *core.Result {
			sys, cfg := core.StarNUMASystem(), goldenSim()
			r, err := core.RunSource(sys, cfg, dumpSource(t, sys, cfg, goldenSpec(t, "Masstree"), budget))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	replStudy := goldenSim()
	replStudy.Replication = migrate.DefaultReplicationConfig()
	replStudy.Replication.Enable = true
	replStudy.Replication.MaxWriteFrac = 1.0
	replPolicy := goldenSim()
	replPolicy.Policy = core.PolicySpec{Name: "replication"}
	oracle := goldenSim()
	oracle.Policy = core.PolicySpec{Name: "oracle"}
	degraded := goldenSim()
	degraded.Faults = fault.DegradePlan(4)
	plain := goldenSim()
	plain.CollectMetrics, plain.Attrib, plain.Trace = false, false, false

	cases := []goldenCase{
		{"replication-study", run(core.BaselineSystem(), replStudy, "Masstree"), func(r *core.Result) error {
			if r.ReplicaReads == 0 || r.ReplicaWriteStalls == 0 {
				return fmt.Errorf("replica reads %d, write stalls %d", r.ReplicaReads, r.ReplicaWriteStalls)
			}
			return nil
		}},
		{"replication-policy", run(core.StarNUMASystem(), replPolicy, "TC"), func(r *core.Result) error {
			if r.ReplicatedPages == 0 || r.ReplicaReads == 0 {
				return fmt.Errorf("replicated pages %d, replica reads %d", r.ReplicatedPages, r.ReplicaReads)
			}
			return nil
		}},
		{"starnuma-t16", run(core.StarNUMASystem(), goldenSim(), "BFS"), func(r *core.Result) error {
			if r.MigrStats.PagesToPool == 0 {
				return fmt.Errorf("no pages migrated to the pool")
			}
			return nil
		}},
		{"starnuma-t16-plain", run(core.StarNUMASystem(), plain, "BFS"), nil},
		{"oracle-policy", run(core.StarNUMASystem(), oracle, "BFS"), func(r *core.Result) error {
			if r.MigrStats != (migrate.Stats{}) || r.PoolPages == 0 {
				return fmt.Errorf("oracle migration stats %+v, pool pages %d", r.MigrStats, r.PoolPages)
			}
			return nil
		}},
		{"cxl-degrade-4", run(core.StarNUMASystem(), degraded, "BFS"), func(r *core.Result) error {
			if r.FaultDegradedSends == 0 || r.MigrStats.PagesToPool == 0 {
				return fmt.Errorf("degraded sends %d, pages to pool %d", r.FaultDegradedSends, r.MigrStats.PagesToPool)
			}
			return nil
		}},
		{"trace-replay", replay(goldenSim().PhaseInstr), nil},
		// Files shorter than the phase budget wrap; longer ones truncate.
		{"trace-replay-wrap", replay(goldenSim().PhaseInstr / 3), nil},
		{"trace-replay-long", replay(2 * goldenSim().PhaseInstr), nil},
	}
	var got strings.Builder
	fmt.Fprintf(&got, "schema %s\n", runner.SchemaVersion)
	for _, tc := range cases {
		r := tc.run(t)
		if tc.check != nil {
			if err := tc.check(r); err != nil {
				t.Errorf("%s does not exercise its path: %v", tc.name, err)
			}
		}
		fmt.Fprintf(&got, "%s %s\n", tc.name, resultDigest(t, r))
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v; computed digests:\n%s", err, got.String())
	}
	wantSchema, _, _ := strings.Cut(string(want), "\n")
	if gotSchema := "schema " + runner.SchemaVersion; wantSchema != gotSchema {
		t.Fatalf("%s was taken at %q, but the result cache is at %q; recompute it.\ngot:\n%s",
			goldenFile, wantSchema, gotSchema, got.String())
	}
	if got.String() != string(want) {
		t.Fatalf("result digests changed: bump runner.SchemaVersion so cached results of the old model are not reused, "+
			"then rewrite %s.\ngot:\n%swant:\n%s", goldenFile, got.String(), want)
	}
}
