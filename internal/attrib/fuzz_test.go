package attrib_test

import (
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/exp"
)

// FuzzDecodeDoc pins that the run-manifest decoder, the only reader of
// stall profiles on disk, never panics on arbitrary bytes, and that
// anything it accepts is well-shaped enough for every downstream
// consumer (renderers, aggregation, diffs, re-encoding).
func FuzzDecodeDoc(f *testing.F) {
	good, err := testManifest().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"schema":"starnuma-stallprof-v1","runs":[{"key":"k","profile":{"sockets":1,"categories":["a"],"windows":[{"phase":0,"total_ps":-1,"cells":[1]}]}}]}`))
	f.Add([]byte(`{"schema":"starnuma-run-manifest-v1","runs":[{"key":"k","profile":{"sockets":2,"categories":["a"],"windows":[{"phase":0,"total_ps":1,"cells":[1]}]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := exp.DecodeRuns(data, "fuzz.json")
		if err != nil {
			return
		}
		// Accepted documents must survive every consumer without panics.
		profs := exp.Profiles(runs)
		_ = attrib.RenderReport(profs, true)
		_ = attrib.RenderFolded(profs)
		if _, err := attrib.RenderSpeedscope(profs); err != nil {
			t.Fatalf("accepted doc fails speedscope render: %v", err)
		}
		a, _, _ := attrib.GroupTotals(profs, "")
		_ = attrib.RenderDiff("a", "b", a, a)
		b, err := (&exp.Manifest{Schema: exp.ManifestSchema, Runs: runs}).Encode()
		if err != nil {
			t.Fatalf("accepted doc fails re-encode: %v", err)
		}
		if _, err := exp.DecodeRuns(b, "fuzz.json"); err != nil {
			t.Fatalf("re-encoded doc rejected: %v", err)
		}
	})
}
