package migrate

import (
	"testing"
	"testing/quick"

	"starnuma/internal/topology"
)

func TestPageCountsBasics(t *testing.T) {
	c := NewPageCounts(64, 16)
	if c.Pages() != 64 {
		t.Fatalf("pages = %d", c.Pages())
	}
	c.Record(3, 10)
	c.Record(3, 10)
	c.Record(5, 10)
	if c.Count(10, 3) != 2 || c.Count(10, 5) != 1 || c.Count(10, 0) != 0 {
		t.Fatal("counts wrong")
	}
	if c.Total(10) != 3 || c.Sharers(10) != 2 {
		t.Fatalf("total=%d sharers=%d", c.Total(10), c.Sharers(10))
	}
	s, n := c.Argmax(10)
	if s != 3 || n != 2 {
		t.Fatalf("argmax = %d,%d", s, n)
	}
	c.Reset()
	if c.Total(10) != 0 {
		t.Fatal("reset failed")
	}
}

func TestPageCountsAddInto(t *testing.T) {
	a := NewPageCounts(8, 4)
	b := NewPageCounts(8, 4)
	a.Record(1, 2)
	a.Record(1, 2)
	a.AddInto(b)
	a.Reset()
	a.Record(2, 2)
	a.AddInto(b)
	if b.Count(2, 1) != 2 || b.Count(2, 2) != 1 {
		t.Fatal("accumulation wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	NewPageCounts(4, 4).AddInto(NewPageCounts(8, 4))
}

func TestPageCountsInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPageCounts(0, 16)
}

func baselineState(pages int) *State {
	return &State{
		PageHome: make([]topology.NodeID, pages),
		Counts:   NewPageCounts(pages, 16),
		Sockets:  16,
	}
}

func TestPerfectBaselineMovesToMajoritySocket(t *testing.T) {
	st := baselineState(32)
	for i := 0; i < 20; i++ {
		st.Counts.Record(7, 3)
	}
	for i := 0; i < 5; i++ {
		st.Counts.Record(0, 3) // current home gets a few accesses
	}
	p := NewPerfectBaseline(0)
	ms := p.Decide(0, st)
	if len(ms) != 1 || ms[0].Page != 3 || ms[0].To != 7 || ms[0].From != 0 {
		t.Fatalf("migrations = %+v", ms)
	}
	if st.PageHome[3] != 7 {
		t.Fatal("PageHome not updated")
	}
}

func TestPerfectBaselineRespectsGainAndMin(t *testing.T) {
	st := baselineState(32)
	// Page 1: below MinAccesses.
	st.Counts.Record(7, 1)
	// Page 2: best socket barely ahead of home (gain too small).
	for i := 0; i < 10; i++ {
		st.Counts.Record(0, 2)
	}
	for i := 0; i < 11; i++ {
		st.Counts.Record(7, 2)
	}
	p := NewPerfectBaseline(0)
	if ms := p.Decide(0, st); len(ms) != 0 {
		t.Fatalf("unexpected migrations: %+v", ms)
	}
}

func TestPerfectBaselineLimit(t *testing.T) {
	st := baselineState(64)
	for pg := uint32(0); pg < 64; pg++ {
		for i := 0; i < 20; i++ {
			st.Counts.Record(9, pg)
		}
	}
	p := NewPerfectBaseline(10)
	if ms := p.Decide(0, st); len(ms) != 10 {
		t.Fatalf("migrated %d, want 10", len(ms))
	}

	// The registry's descriptor default is the paper's 8192-page cap.
	const pages = 8192 + 64
	st = baselineState(pages)
	for pg := uint32(0); pg < pages; pg++ {
		for i := 0; i < 20; i++ {
			st.Counts.Record(9, pg)
		}
	}
	pol, err := NewPolicy("baseline-perfect", nil, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if ms := pol.Decide(0, st); len(ms) != 8192 {
		t.Fatalf("default baseline-perfect migrated %d, want 8192", len(ms))
	}
}

func TestPerfectBaselineRequiresCounts(t *testing.T) {
	p := NewPerfectBaseline(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Decide(0, &State{PageHome: make([]topology.NodeID, 4), Sockets: 16})
}

func TestNoMigration(t *testing.T) {
	st := baselineState(8)
	if ms := (NoMigration{}).Decide(0, st); ms != nil {
		t.Fatal("NoMigration migrated")
	}
}

func TestStaticOracleBaselinePlacement(t *testing.T) {
	total := NewPageCounts(16, 16)
	for i := 0; i < 10; i++ {
		total.Record(4, 0)
	}
	total.Record(2, 0)
	home := StaticOraclePlacement(total, StaticOracleConfig{Sockets: 16})
	if home[0] != 4 {
		t.Fatalf("page 0 home = %v, want 4", home[0])
	}
	// Untouched pages get a deterministic random socket in range.
	if home[5] < 0 || int(home[5]) >= 16 {
		t.Fatalf("untouched page home = %v", home[5])
	}
}

func TestStaticOraclePoolsHottestSharedPages(t *testing.T) {
	total := NewPageCounts(100, 16)
	// Pages 0..9 widely shared, page 0 hottest ... page 9 coldest.
	for pg := uint32(0); pg < 10; pg++ {
		for s := 0; s < 16; s++ {
			for i := 0; i < 10*(10-int(pg)); i++ {
				total.Record(s, pg)
			}
		}
	}
	// Page 50: hot but private.
	for i := 0; i < 10000; i++ {
		total.Record(3, 50)
	}
	cfg := StaticOracleConfig{
		Sockets: 16, HasPool: true, PoolNode: 16,
		PoolCapacityPages: 4, PoolSharerThreshold: 8,
	}
	home := StaticOraclePlacement(total, cfg)
	for pg := 0; pg < 4; pg++ {
		if home[pg] != 16 {
			t.Errorf("page %d home = %v, want pool", pg, home[pg])
		}
	}
	for pg := 4; pg < 10; pg++ {
		if home[pg] == 16 {
			t.Errorf("page %d pooled beyond capacity", pg)
		}
	}
	if home[50] == 16 {
		t.Error("private page pooled")
	}
}

func TestStaticOracleNoPool(t *testing.T) {
	total := NewPageCounts(8, 16)
	home := StaticOraclePlacement(total, StaticOracleConfig{Sockets: 16, HasPool: false})
	for _, h := range home {
		if int(h) >= 16 {
			t.Fatalf("home %v out of socket range", h)
		}
	}
}

func TestStaticOracleInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StaticOraclePlacement(NewPageCounts(4, 4), StaticOracleConfig{})
}

// Property: oracle placement always lands every page on a valid node and
// never exceeds pool capacity.
func TestStaticOracleInvariants(t *testing.T) {
	f := func(seed int64, capacity uint8) bool {
		total := NewPageCounts(64, 16)
		rng := newDetRand(seed)
		for i := 0; i < 500; i++ {
			total.Record(int(rng()%16), uint32(rng()%64))
		}
		cap := int(capacity % 64)
		cfg := StaticOracleConfig{
			Sockets: 16, HasPool: true, PoolNode: 16,
			PoolCapacityPages: cap, PoolSharerThreshold: 8, Seed: seed,
		}
		home := StaticOraclePlacement(total, cfg)
		pooled := 0
		for _, h := range home {
			if int(h) > 16 || h < 0 {
				return false
			}
			if h == 16 {
				pooled++
			}
		}
		return pooled <= cap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// newDetRand is a minimal deterministic generator for property tests.
func newDetRand(seed int64) func() uint64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}
