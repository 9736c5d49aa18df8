package trace

import (
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
	dir := t.TempDir()
	p0 := filepath.Join(dir, "p0.sntr")
	p1 := filepath.Join(dir, "p1.sntr")
	for phase, path := range map[int]string{0: p0, 1: p1} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DumpPhase(gen, phase, 1000, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	src, err := NewSource(gen.Spec(), 16, 4, []string{p0, p1})
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
