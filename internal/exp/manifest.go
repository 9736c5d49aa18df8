package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"starnuma/internal/attrib"
	"starnuma/internal/core"
	"starnuma/internal/metrics"
)

// ManifestSchema versions the run-manifest document; bump on
// incompatible shape changes.
const ManifestSchema = "starnuma-run-manifest-v1"

// ManifestRun is one simulated (variant, workload) pair of a manifest:
// its memo key, headline results, and — when collection was enabled —
// the instrumentation snapshot and the stall-attribution profile.
type ManifestRun struct {
	// Key is the runner's memo key, "variant|workload".
	Key      string            `json:"key"`
	Workload string            `json:"workload"`
	Policy   string            `json:"policy"`
	Tracker  string            `json:"tracker"`
	IPC      float64           `json:"ipc"`
	MPKI     float64           `json:"mpki"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
	Profile  *attrib.Profile   `json:"profile,omitempty"`
}

func manifestRun(key string, res *core.Result) ManifestRun {
	return ManifestRun{
		Key:      key,
		Workload: res.Workload,
		Policy:   res.Policy.String(),
		Tracker:  res.Tracker,
		IPC:      res.IPC,
		MPKI:     res.MPKI,
		Metrics:  res.Metrics,
		Profile:  res.Profile,
	}
}

// Manifest is the -metrics output document and the one artifact of a
// run: every simulation the experiment runner executed (or recalled),
// in sorted key order so the encoding is deterministic.
type Manifest struct {
	Schema string        `json:"schema"`
	Scale  float64       `json:"scale"`
	Phases int           `json:"phases"`
	Jobs   int           `json:"jobs"`
	Runs   []ManifestRun `json:"runs"`
}

// eachMemo calls fn on every memoised result in memo-key order, with
// the memo locked, so every artifact built from it is deterministic.
func (r *Runner) eachMemo(fn func(key string, res *core.Result)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.memo))
	for k := range r.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, r.memo[k])
	}
}

// Manifest snapshots the runner's memoised results. Runs are sorted by
// memo key, so identical run sets encode byte-identically.
func (r *Runner) Manifest() *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		Scale:  r.opts.Scale,
		Phases: r.opts.Sim.Phases,
		Jobs:   r.exec.Jobs(),
	}
	r.eachMemo(func(k string, res *core.Result) {
		m.Runs = append(m.Runs, manifestRun(k, res))
	})
	return m
}

// Encode renders the manifest as indented JSON with a trailing newline.
func (m *Manifest) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("exp: manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteManifest writes the runner's manifest to path.
func (r *Runner) WriteManifest(path string) error {
	b, err := r.Manifest().Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// DecodeRuns reads the runs of any JSON document that carries results:
// a run manifest, a runner cache entry, or a bare core.Result. name
// labels a cache entry or bare result that has no key of its own. It
// never panics on corrupt input: a manifest must carry ManifestSchema,
// every run needs a key, and every profile must pass
// attrib.Profile.Validate, so readers may index its cells freely.
func DecodeRuns(data []byte, name string) ([]ManifestRun, error) {
	var probe struct {
		Schema string          `json:"schema"`
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("exp: not a JSON document: %w", err)
	}
	var runs []ManifestRun
	switch {
	case probe.Schema != "":
		if probe.Schema != ManifestSchema {
			return nil, fmt.Errorf("exp: unknown manifest schema %q (want %q)", probe.Schema, ManifestSchema)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("exp: manifest: %w", err)
		}
		runs = m.Runs
	case probe.Result != nil:
		var res core.Result
		if err := json.Unmarshal(probe.Result, &res); err != nil {
			return nil, fmt.Errorf("exp: cache entry: %w", err)
		}
		label := probe.Key
		if label == "" {
			label = name
		}
		runs = []ManifestRun{manifestRun(label, &res)}
	default:
		var res core.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("exp: result: %w", err)
		}
		label := res.Workload
		if label == "" {
			label = name
		}
		runs = []ManifestRun{manifestRun(label, &res)}
	}
	for i, r := range runs {
		if r.Key == "" {
			return nil, fmt.Errorf("exp: run %d has no key", i)
		}
		if r.Profile != nil {
			if err := r.Profile.Validate(); err != nil {
				return nil, fmt.Errorf("exp: run %d (%s): %w", i, r.Key, err)
			}
		}
	}
	return runs, nil
}

// Profiles returns the labelled stall profiles of the runs that carry
// one, in the order given: the input of attrib's renderers.
func Profiles(runs []ManifestRun) []attrib.Run {
	var out []attrib.Run
	for _, r := range runs {
		if r.Profile != nil {
			out = append(out, attrib.Run{Key: r.Key, Workload: r.Workload, Policy: r.Policy, Profile: r.Profile})
		}
	}
	return out
}
