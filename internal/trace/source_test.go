package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"starnuma/internal/workload"
)

// dumpTestTrace writes one phase file and returns its path.
func dumpTestTrace(t *testing.T, dir string, gen *workload.Generator, phase int, instr uint64) string {
	t.Helper()
	path := filepath.Join(dir, "phase.sntr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := DumpPhase(gen, phase, instr, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// dumpPhases writes phases 0..n-1 of gen, each core up to instr
// instructions, to one file each in dir and returns their paths.
func dumpPhases(tb testing.TB, dir string, gen *workload.Generator, n int, instr uint64) []string {
	tb.Helper()
	var paths []string
	for ph := 0; ph < n; ph++ {
		path := filepath.Join(dir, fmt.Sprintf("p%d.sntr", ph))
		f, err := os.Create(path)
		if err != nil {
			tb.Fatal(err)
		}
		_, err = DumpPhase(gen, ph, instr, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// writeTrace writes a hand-built trace file and returns its path.
func writeTrace(t *testing.T, h Header, recs []Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crafted.sntr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewWriter(f, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testGen(t *testing.T) *workload.Generator {
	t.Helper()
	spec, err := workload.ByName("CC", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// genStream returns the generator's recorded stream of phase at budget.
func genStream(gen *workload.Generator, phase int, budget uint64) *workload.Stream {
	gen.SetPhaseBudget(budget)
	gen.ResetPhase(phase)
	return gen.Stream()
}

// access returns core c's k-th access of s.
func access(s *workload.Stream, c, k int) workload.Access {
	i := int(s.Off[c]) + k
	return workload.Access{Gap: s.Gaps[i], Page: s.Pages[i], Block: s.Blocks[i], Write: s.Writes[i]}
}

func TestSourceReplaysDump(t *testing.T) {
	gen := testGen(t)
	dir := t.TempDir()
	path := dumpTestTrace(t, dir, gen, 0, 3000)

	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumCores() != 64 || src.NumPages() != gen.NumPages() {
		t.Fatalf("shape: cores=%d pages=%d", src.NumCores(), src.NumPages())
	}
	if src.SocketOf(5) != 1 {
		t.Fatal("SocketOf wrong")
	}
	if src.Spec().FootprintPages != gen.NumPages() {
		t.Fatal("spec footprint not adopted from header")
	}
	if _, ok := src.StreamSig(); ok {
		t.Fatal("trace streams must stay out of the ingest memo")
	}

	// Replay at the dump's budget must byte-match the generator's
	// recorded stream.
	src.SetPhaseBudget(3000)
	src.ResetPhase(0)
	if !reflect.DeepEqual(src.Stream(), genStream(gen, 0, 3000)) {
		t.Fatal("decoded stream differs from the generator's recorded stream")
	}
}

func TestSourceResetRewinds(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 1, 2000)
	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	src.SetPhaseBudget(2000)
	src.ResetPhase(0)
	s := src.Stream()
	if got := access(s, int(first.Core), 0); got != first.Access {
		t.Fatalf("stream does not start at the file's first record: %+v vs %+v", got, first.Access)
	}
	src.ResetPhase(0)
	if !reflect.DeepEqual(src.Stream(), s) {
		t.Fatal("resetting the loaded phase changed its stream")
	}
}

func TestSourceWrapsExhaustedStream(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 200) // tiny
	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	src.ResetPhase(0)
	raw := src.Stream() // budget 0: the file's records as they are
	rawLen := int(raw.Off[1] - raw.Off[0])
	rec := make([]workload.Access, rawLen)
	for k := range rec {
		rec[k] = access(raw, 0, k)
	}

	const budget = 10000
	src.SetPhaseBudget(budget)
	s := src.Stream()
	n := int(s.Off[1] - s.Off[0])
	if n <= rawLen {
		t.Fatalf("stream of %d accesses did not wrap %d records", n, rawLen)
	}
	var cum uint64
	for k := 0; k < n; k++ {
		a := access(s, 0, k)
		if a != rec[k%rawLen] {
			t.Fatalf("access %d: %+v, want record %d %+v", k, a, k%rawLen, rec[k%rawLen])
		}
		if cum >= budget {
			t.Fatalf("access %d lies past the budget", k)
		}
		cum += uint64(a.Gap)
	}
	if cum < budget {
		t.Fatalf("stream ends at %d instructions, before the budget", cum)
	}
}

func TestSourceTruncatesLongFile(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 4000)
	src, err := NewSource(gen.Spec(), 16, 4, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	src.SetPhaseBudget(1000)
	src.ResetPhase(0)
	if !reflect.DeepEqual(src.Stream(), genStream(gen, 0, 1000)) {
		t.Fatal("a file longer than the budget must cut to the generator's stream at that budget")
	}
}

func TestSourcePhaseWrapAcrossFiles(t *testing.T) {
	gen := testGen(t)
	paths := dumpPhases(t, t.TempDir(), gen, 2, 1000)
	src, err := NewSource(gen.Spec(), 16, 4, paths)
	if err != nil {
		t.Fatal(err)
	}
	src.SetPhaseBudget(1000)
	src.ResetPhase(0)
	s0 := src.Stream()
	src.ResetPhase(1)
	if reflect.DeepEqual(src.Stream(), s0) {
		t.Fatal("phase 1 replayed phase 0's file")
	}
	src.ResetPhase(2) // wraps to file 0
	if !reflect.DeepEqual(src.Stream(), s0) {
		t.Fatal("phase wrap broken: phase 2 differs from phase 0")
	}
}

// TestSourceDecodesOnce pins the decode-once contract: NewSource reads
// every file, so steps B and C replay with the files gone, each phase
// is fitted once per budget, and a refit matches a fresh Source.
func TestSourceDecodesOnce(t *testing.T) {
	gen := testGen(t)
	paths := dumpPhases(t, t.TempDir(), gen, 2, 1500)
	const phases = 3                     // phase 2 wraps to file 0
	budgets := []uint64{1500, 700, 4000} // as recorded, cut, wrapped
	open := func() *Source {
		t.Helper()
		src, err := NewSource(gen.Spec(), 16, 4, paths)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	want := map[uint64][]*workload.Stream{}
	for _, budget := range budgets {
		fresh := open()
		fresh.SetPhaseBudget(budget)
		for ph := 0; ph < phases; ph++ {
			fresh.ResetPhase(ph)
			want[budget] = append(want[budget], fresh.Stream())
		}
	}
	src := open()
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range budgets {
		src.SetPhaseBudget(budget)
		first := make([]*workload.Stream, phases)
		// Step B walks the phases once, then step C's windows again.
		for pass := 0; pass < 2; pass++ {
			for ph := 0; ph < phases; ph++ {
				src.ResetPhase(ph)
				s := src.Stream()
				if !reflect.DeepEqual(s, want[budget][ph]) {
					t.Fatalf("budget %d, pass %d, phase %d: stream differs from a fresh Source's", budget, pass, ph)
				}
				if pass == 0 {
					first[ph] = s
				} else if s != first[ph] {
					t.Fatalf("budget %d, phase %d: stream refitted at an unchanged budget", budget, ph)
				}
			}
		}
		if first[2] != first[0] {
			t.Fatalf("budget %d: wrapped phase 2 refitted file 0", budget)
		}
	}
}

func TestSourceValidation(t *testing.T) {
	gen := testGen(t)
	path := dumpTestTrace(t, t.TempDir(), gen, 0, 1000)
	if _, err := NewSource(gen.Spec(), 16, 4, nil); err == nil {
		t.Fatal("accepted empty path list")
	}
	if _, err := NewSource(gen.Spec(), 0, 4, []string{path}); err == nil {
		t.Fatal("accepted zero sockets")
	}
	if _, err := NewSource(gen.Spec(), 8, 4, []string{path}); err == nil {
		t.Fatal("accepted core-count mismatch")
	}
	if _, err := NewSource(gen.Spec(), 16, 4, []string{"/nonexistent"}); err == nil {
		t.Fatal("accepted missing file")
	}
}

// craftedRecords gives each of cores cores one valid access.
func craftedRecords(cores int) []Record {
	recs := make([]Record, cores)
	for c := range recs {
		recs[c] = Record{Core: uint16(c), Access: workload.Access{Gap: 10, Page: uint32(c)}}
	}
	return recs
}

// wantNamedError checks that err names the file, the core and the field.
func wantNamedError(t *testing.T, err error, path string, parts ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("malformed trace accepted")
	}
	for _, p := range append([]string{path}, parts...) {
		if !strings.Contains(err.Error(), p) {
			t.Fatalf("error %q does not name %q", err, p)
		}
	}
}

func TestSourceRejectsBlockOutOfRange(t *testing.T) {
	// A block index past the page would alias into the next page, or
	// index past the directory on the footprint's last page.
	const pages = 64
	recs := craftedRecords(64)
	recs[5].Access.Page = pages - 1
	recs[5].Access.Block = workload.BlocksPerPage
	path := writeTrace(t, Header{Workload: "crafted", Cores: 64, Pages: pages}, recs)
	_, err := NewSource(workload.Spec{Name: "crafted"}, 16, 4, []string{path})
	wantNamedError(t, err, path, "core 5", "block 64")
}

func TestSourceRejectsZeroGapCore(t *testing.T) {
	// A core whose gaps never advance its instruction count would never
	// reach any phase budget.
	recs := craftedRecords(64)
	recs[3].Access.Gap = 0
	recs = append(recs, Record{Core: 3, Access: workload.Access{Gap: 0, Page: 1}})
	path := writeTrace(t, Header{Workload: "crafted", Cores: 64, Pages: 64}, recs)
	_, err := NewSource(workload.Spec{Name: "crafted"}, 16, 4, []string{path})
	wantNamedError(t, err, path, "core 3", "gap")
}

func TestSourceRejectsTruncatedRecord(t *testing.T) {
	// A later file cut mid-record fails NewSource, naming the file and
	// the leftover bytes, before any phase is replayed.
	gen := testGen(t)
	paths := dumpPhases(t, t.TempDir(), gen, 2, 1000)
	fi, err := os.Stat(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[1], fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	_, err = NewSource(gen.Spec(), 16, 4, paths)
	wantNamedError(t, err, paths[1], "truncated record", fmt.Sprintf("%d trailing bytes", recordSize-5))
}

// BenchmarkSourceReplay measures the trace layer of a trace-driven run:
// decoding four quick-scale BFS phase files and fitting them to the
// phase budget, then binding every phase for step B and again for step
// C, as core.RunSource does.
func BenchmarkSourceReplay(b *testing.B) {
	const (
		phases = 4
		budget = 1_000_000 // core.QuickSim's phase length
	)
	spec, err := workload.ByName("BFS", 0.125)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(spec, 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	paths := dumpPhases(b, b.TempDir(), gen, phases, budget)
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := NewSource(spec, 16, 4, paths)
		if err != nil {
			b.Fatal(err)
		}
		src.SetPhaseBudget(budget)
		records = 0
		for pass := 0; pass < 2; pass++ {
			for ph := 0; ph < phases; ph++ {
				src.ResetPhase(ph)
				if s := src.Stream(); pass == 0 {
					records += len(s.Gaps)
				}
			}
		}
	}
	b.ReportMetric(float64(records), "records/op")
}
