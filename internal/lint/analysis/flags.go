package analysis

import "strings"

// ListFlag is a comma-separated string-list flag value, used by
// analyzers for package scopes and type lists.
type ListFlag struct {
	List []string
}

// NewListFlag returns a ListFlag holding the given defaults.
func NewListFlag(defaults ...string) *ListFlag { return &ListFlag{List: defaults} }

func (f *ListFlag) String() string { return strings.Join(f.List, ",") }

// Set replaces the list with the comma-separated elements of s.
func (f *ListFlag) Set(s string) error {
	f.List = f.List[:0]
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			f.List = append(f.List, e)
		}
	}
	return nil
}

// Contains reports whether v is in the list.
func (f *ListFlag) Contains(v string) bool {
	for _, e := range f.List {
		if e == v {
			return true
		}
	}
	return false
}

// SimPackages is the set of packages bound by the determinism contract:
// everything that executes between a (system, sim, workload, seed)
// cache key and a Result must be a pure function of that key. Only
// internal/runner, internal/exp, internal/lint and cmd/ may read the
// wall clock or the environment — they sit outside the cached
// computation.
var SimPackages = []string{
	"starnuma/internal/attrib",
	"starnuma/internal/fault",
	"starnuma/internal/scenario",
	"starnuma/internal/metrics",
	"starnuma/internal/sim",
	"starnuma/internal/core",
	"starnuma/internal/evtrace",
	"starnuma/internal/memo",
	"starnuma/internal/migrate",
	"starnuma/internal/coherence",
	"starnuma/internal/cache",
	"starnuma/internal/link",
	"starnuma/internal/memdev",
	"starnuma/internal/pool",
	"starnuma/internal/tlb",
	"starnuma/internal/topology",
	"starnuma/internal/trace",
	"starnuma/internal/tracker",
	"starnuma/internal/workload",
	"starnuma/internal/stats",
}
