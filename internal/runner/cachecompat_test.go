package runner

import (
	"encoding/json"
	"strings"
	"testing"

	"starnuma/internal/core"
	"starnuma/internal/workload"
)

// goldenCacheKeys pins the content-addressed cache keys of the three
// legacy policies. Adding or removing a SimConfig field changes the
// hashed JSON and so every key; entries under the old keys are then
// recomputed, never reused stale. Re-pin these only in a change that
// alters SimConfig's shape: anything else that moves them would orphan
// every cached result.
var goldenCacheKeys = map[string]string{
	"starnuma":         "3e289d9bba75cfbc31e49d2019a60cf5dc6626d90340b806eaefe69f2a034128",
	"baseline-perfect": "3d64b5c5f3bd1f6f2a8b20473cc57c4e3f921456f56729fe71bbb811b27a4630",
	"none":             "341d927bb51ab6a59b151f2ff5a88f7d9086be789e882ad68331219f0b7d9254",
}

func goldenInputs(t *testing.T, policy core.PolicySpec) (core.SystemConfig, core.SimConfig, workload.Spec) {
	t.Helper()
	spec, err := workload.ByName("BFS", 0.125)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.QuickSim()
	cfg.Policy = policy
	return core.StarNUMASystem(), cfg, spec
}

func TestCacheKeyLegacyPolicyCompat(t *testing.T) {
	c := newResultCache(t.TempDir(), "")
	for _, p := range []core.PolicySpec{core.PolicyStarNUMA, core.PolicyPerfectBaseline, core.PolicyNone} {
		sys, cfg, spec := goldenInputs(t, p)
		k, err := c.key(sys, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenCacheKeys[p.String()]; k != want {
			t.Errorf("cache key for %v drifted:\n got  %s\n want %s\n"+
				"(pre-redesign entries would no longer be addressable)", p, k, want)
		}
	}
}

// TestCacheKeyLegacyJSONRoundTrip proves the stronger property: a
// SimConfig decoded from legacy JSON (bare integer Policy values, as
// every pre-redesign config marshaled) hashes to the same key as the
// modern value — and the modern value still marshals to that legacy
// form.
func TestCacheKeyLegacyJSONRoundTrip(t *testing.T) {
	c := newResultCache(t.TempDir(), "")
	for code, p := range []core.PolicySpec{core.PolicyStarNUMA, core.PolicyPerfectBaseline, core.PolicyNone} {
		sys, cfg, spec := goldenInputs(t, p)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The modern spec must emit the legacy bare-integer encoding.
		if want := `"Policy":` + string(rune('0'+code)) + `,`; !strings.Contains(string(b), want) {
			t.Fatalf("SimConfig JSON for %v lost the legacy encoding %s:\n%s", p, want, b)
		}
		var decoded core.SimConfig
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatal(err)
		}
		k1, err := c.key(sys, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := c.key(sys, decoded, spec)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("legacy JSON round-trip changed the cache key for %v: %s != %s", p, k1, k2)
		}
		if k1 != goldenCacheKeys[p.String()] {
			t.Errorf("key for %v drifted from golden: %s", p, k1)
		}
	}
}
