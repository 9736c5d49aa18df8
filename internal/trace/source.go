package trace

import (
	"bytes"
	"fmt"
	"os"

	"starnuma/internal/workload"
)

// Source replays step-A trace files through the evaluation pipeline: it
// implements core.AccessSource, so externally captured traces (or
// traces dumped by `starnuma workload dump`) can drive steps B and C
// exactly like the synthetic generators.
//
// One file per phase, in phase order. If the pipeline asks for more
// phases than files exist, phases wrap around. NewSource decodes every
// file once, so one Source holds every phase's decoded stream and steps
// B and C replay them with no further I/O (§IV-A1: a phase is recorded
// once and replayed by both steps). Each phase's stream is fitted to
// the phase budget on first use at that budget: a core's stream is the
// shortest prefix of its records, repeated end to end, whose gaps reach
// the budget — longer files are cut, shorter ones wrap (traces are
// treated as stationary samples, like the paper's per-phase trace
// reuse).
type Source struct {
	spec           workload.Spec
	paths          []string
	sockets        int
	coresPerSocket int
	pages          int
	budget         uint64

	raw    []*workload.Stream // file i's records, grouped per core
	fitted []*workload.Stream // raw[i] fitted to budget; nil until first use
	bound  int                // file index ResetPhase bound
}

// NewSource opens a replay source over the given per-phase trace files.
// The spec supplies the timing parameters (IPC, MPKI, MLP) the trace
// itself does not carry; its footprint is overridden by the trace
// header. Every file is decoded and validated here, so a malformed one
// fails NewSource with an error naming it, never a later phase.
func NewSource(spec workload.Spec, sockets, coresPerSocket int, paths []string) (*Source, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("trace: no trace files")
	}
	if sockets <= 0 || coresPerSocket <= 0 {
		return nil, fmt.Errorf("trace: invalid system shape %dx%d", sockets, coresPerSocket)
	}
	s := &Source{
		spec:           spec,
		paths:          paths,
		sockets:        sockets,
		coresPerSocket: coresPerSocket,
		raw:            make([]*workload.Stream, len(paths)),
		fitted:         make([]*workload.Stream, len(paths)),
	}
	for i := range paths {
		raw, err := s.decode(i)
		if err != nil {
			return nil, err
		}
		s.raw[i] = raw
	}
	s.spec.FootprintPages = s.pages
	s.ResetPhase(0)
	return s, nil
}

// decode reads phase file i into per-core record sequences, adopting
// the file's footprint if it is the first. Every record is validated
// against the system shape and footprint.
func (s *Source) decode(i int) (*workload.Stream, error) {
	path := s.paths[i]
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	h := r.Header()
	cores := s.NumCores()
	if h.Cores != cores {
		return nil, fmt.Errorf("trace: file %s has %d cores, system needs %d", path, h.Cores, cores)
	}
	if s.pages == 0 {
		s.pages = h.Pages
	} else if h.Pages != s.pages {
		return nil, fmt.Errorf("trace: file %s has %d pages, %s has %d", path, h.Pages, s.paths[0], s.pages)
	}
	recs := data[h.size():]
	if extra := len(recs) % recordSize; extra != 0 {
		return nil, fmt.Errorf("trace: %s: truncated record: %d trailing bytes", path, extra)
	}
	n := len(recs) / recordSize

	// Group the interleaved records per core by counting sort.
	raw := &workload.Stream{
		Off:    make([]int32, cores+1),
		Gaps:   make([]uint32, n),
		Pages:  make([]uint32, n),
		Blocks: make([]uint16, n),
		Writes: make([]bool, n),
	}
	for k := 0; k < n; k++ {
		c := int(decodeRecord(recs[k*recordSize:]).Core)
		if c >= cores {
			return nil, fmt.Errorf("trace: %s: record %d: core %d out of range (%d cores)", path, k, c, cores)
		}
		raw.Off[c+1]++
	}
	for c := 0; c < cores; c++ {
		if raw.Off[c+1] == 0 {
			return nil, fmt.Errorf("trace: %s: core %d has no records", path, c)
		}
		raw.Off[c+1] += raw.Off[c]
	}
	next := append([]int32(nil), raw.Off[:cores]...)
	gapSum := make([]uint64, cores)
	for k := 0; k < n; k++ {
		rec := decodeRecord(recs[k*recordSize:])
		c, a := rec.Core, rec.Access
		if int(a.Page) >= s.pages {
			return nil, fmt.Errorf("trace: %s: core %d: record %d: page %d out of range (%d pages)", path, c, k, a.Page, s.pages)
		}
		if a.Block >= workload.BlocksPerPage {
			return nil, fmt.Errorf("trace: %s: core %d: record %d: block %d out of range (%d blocks per page)",
				path, c, k, a.Block, workload.BlocksPerPage)
		}
		j := next[c]
		next[c]++
		raw.Gaps[j], raw.Pages[j], raw.Blocks[j], raw.Writes[j] = a.Gap, a.Page, a.Block, a.Write
		gapSum[c] += uint64(a.Gap)
	}
	for c, sum := range gapSum {
		if sum == 0 {
			return nil, fmt.Errorf("trace: %s: core %d: every record has gap 0, so no instruction budget is ever reached", path, c)
		}
	}
	return raw, nil
}

// fit returns raw cut or wrapped to budget: each core's shortest prefix
// of its records, repeated end to end, whose gaps sum to at least
// budget. A zero budget, or a file recorded at exactly budget, returns
// raw itself.
func fit(raw *workload.Stream, budget uint64) *workload.Stream {
	if budget == 0 {
		return raw
	}
	cores := len(raw.Off) - 1
	lens := make([]int32, cores)
	var total int32
	same := true
	for c := 0; c < cores; c++ {
		lo, hi := raw.Off[c], raw.Off[c+1]
		var cum uint64
		for i := lo; cum < budget; lens[c]++ {
			cum += uint64(raw.Gaps[i])
			if i++; i == hi {
				i = lo
			}
		}
		total += lens[c]
		same = same && lens[c] == hi-lo
	}
	if same {
		return raw
	}
	out := &workload.Stream{
		Off:    make([]int32, cores+1),
		Gaps:   make([]uint32, total),
		Pages:  make([]uint32, total),
		Blocks: make([]uint16, total),
		Writes: make([]bool, total),
	}
	for c := 0; c < cores; c++ {
		lo, hi := raw.Off[c], raw.Off[c+1]
		at := out.Off[c]
		out.Off[c+1] = at + lens[c]
		for at < out.Off[c+1] {
			k := copy(out.Gaps[at:out.Off[c+1]], raw.Gaps[lo:hi])
			end := at + int32(k)
			copy(out.Pages[at:end], raw.Pages[lo:hi])
			copy(out.Blocks[at:end], raw.Blocks[lo:hi])
			copy(out.Writes[at:end], raw.Writes[lo:hi])
			at = end
		}
	}
	return out
}

// SetPhaseBudget implements core.AccessSource: streams, the bound one
// included, are fitted to budget instructions per core from now on.
func (s *Source) SetPhaseBudget(budget uint64) {
	if budget != s.budget {
		s.budget = budget
		clear(s.fitted)
		s.ResetPhase(s.bound)
	}
}

// ResetPhase implements core.AccessSource: it binds the phase's file,
// fitting it to the budget on its first use at that budget. It does no
// I/O: NewSource decoded every file.
func (s *Source) ResetPhase(phase int) {
	i := phase % len(s.raw)
	if s.fitted[i] == nil {
		s.fitted[i] = fit(s.raw[i], s.budget)
	}
	s.bound = i
}

// Stream implements core.AccessSource.
func (s *Source) Stream() *workload.Stream { return s.fitted[s.bound] }

// StreamSig implements core.AccessSource. Trace streams carry no
// identity, so they never enter the simulator's ingest memo.
func (s *Source) StreamSig() (string, bool) { return "", false }

// NumPages implements core.AccessSource.
func (s *Source) NumPages() int { return s.pages }

// NumCores implements core.AccessSource.
func (s *Source) NumCores() int { return s.sockets * s.coresPerSocket }

// SocketOf implements core.AccessSource.
func (s *Source) SocketOf(core int) int { return core / s.coresPerSocket }

// Spec implements core.AccessSource.
func (s *Source) Spec() workload.Spec { return s.spec }
