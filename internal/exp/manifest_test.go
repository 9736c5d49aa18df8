package exp

import (
	"encoding/json"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/metrics"
)

func decodeSnapshot() *metrics.Snapshot {
	return &metrics.Snapshot{Counters: map[string]uint64{"coherence/transactions": 7}}
}

func TestDecodeRunsManifest(t *testing.T) {
	m := &Manifest{
		Schema: ManifestSchema,
		Runs: []ManifestRun{
			{Key: "baseline|BFS", Workload: "BFS", Metrics: decodeSnapshot()},
			{Key: "starnuma-t16|BFS", Workload: "BFS"},
		},
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := DecodeRuns(b, "manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Key != "baseline|BFS" || runs[1].Metrics != nil {
		t.Errorf("unexpected decode: %+v", runs)
	}
}

func TestDecodeRunsCacheEntryAndBareResult(t *testing.T) {
	res := &core.Result{Workload: "BFS", Metrics: decodeSnapshot()}

	entry := struct {
		Version string       `json:"version"`
		Key     string       `json:"key"`
		Result  *core.Result `json:"result"`
	}{"starnuma-results-v1", "abc123", res}
	b, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := DecodeRuns(b, "abc123.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Key != "abc123" || runs[0].Metrics.Empty() {
		t.Errorf("cache entry decode: %+v", runs)
	}

	b, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	runs, err = DecodeRuns(b, "res.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Key != "BFS" || runs[0].Metrics.Empty() {
		t.Errorf("bare result decode: %+v", runs)
	}
}

func TestDecodeRunsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"schema":"bogus-v9"}`,
		`{"schema":"starnuma-run-manifest-v1","runs":[{"workload":"BFS"}]}`,
	} {
		if _, err := DecodeRuns([]byte(bad), "x"); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
	if _, err := DecodeRuns([]byte(`{"IPC":1}`), ""); err == nil {
		t.Error("bare result with no workload or name accepted")
	}
}
