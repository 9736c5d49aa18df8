package main

import (
	"strings"
	"testing"

	"starnuma/internal/exp"
	"starnuma/internal/metrics"
)

func sampleSnapshot(scale uint64) *metrics.Snapshot {
	return &metrics.Snapshot{
		Counters: map[string]uint64{
			"link/upi/s0-s1/busy_ps":   100 * scale,
			"link/upi/s0-s1/queued_ps": 40 * scale,
			"link/upi/s0-s1/tx_bytes":  640 * scale,
			"link/upi/s0-s1/messages":  10 * scale,
			"link/cxl/s0-pool/busy_ps": 300 * scale,
			"coherence/transactions":   7 * scale,
		},
		Gauges: map[string]float64{"sim/ipc": 0.5},
		Histograms: map[string]metrics.Histogram{
			"sim/queue_depth": {Count: 4, Sum: 10, Min: 1, Max: 4,
				Buckets: []metrics.Bucket{{Lo: 1, N: 2}, {Lo: 2, N: 2}}},
		},
		Series: map[string][]metrics.Point{
			"core/instructions": {{T: 0, V: 1000}, {T: 1, V: 1100}},
		},
	}
}

func TestDumpGolden(t *testing.T) {
	runs := []exp.ManifestRun{{Key: "starnuma-t16|BFS", Metrics: sampleSnapshot(1)}}
	got := dumpText(runs)
	want := `== starnuma-t16|BFS ==
counter coherence/transactions 7
counter link/cxl/s0-pool/busy_ps 300
counter link/upi/s0-s1/busy_ps 100
counter link/upi/s0-s1/messages 10
counter link/upi/s0-s1/queued_ps 40
counter link/upi/s0-s1/tx_bytes 640
gauge sim/ipc 0.5
hist sim/queue_depth count=4 sum=10 min=1 max=4 mean=2.500
series core/instructions 0:1000 1:1100

`
	if got != want {
		t.Errorf("dumpText mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDiffIdenticalAndChanged(t *testing.T) {
	a, b := sampleSnapshot(1), sampleSnapshot(1)
	if got := diffText(a, b); got != "no differences\n" {
		t.Errorf("identical snapshots: %q", got)
	}
	c := sampleSnapshot(2)
	out := diffText(a, c)
	if !strings.Contains(out, "coherence/transactions") {
		t.Errorf("changed counter missing from diff:\n%s", out)
	}
	if strings.Contains(out, "sim/ipc") {
		t.Errorf("unchanged gauge reported:\n%s", out)
	}
}

func TestTopRanksLinksByBusy(t *testing.T) {
	out := topText(sampleSnapshot(1), 1)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got:\n%s", out)
	}
	if !strings.Contains(lines[1], "link/cxl/s0-pool") {
		t.Errorf("hottest link should be cxl (busy 300):\n%s", out)
	}
}
