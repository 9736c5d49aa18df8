package attrib_test

import (
	"testing"

	"starnuma/internal/attrib"
	"starnuma/internal/exp"
)

// testManifest is a run manifest carrying two stall profiles, the only
// on-disk form profiles take.
func testManifest() *exp.Manifest {
	profile := func() *attrib.Profile {
		p := attrib.NewProfile(2)
		l := attrib.NewLedger(2)
		l.Charge(0, attrib.DRAM, 100)
		l.Charge(1, attrib.CXLProp, 40)
		p.Append(l.Window(0, 140))
		return p
	}
	return &exp.Manifest{Schema: exp.ManifestSchema, Runs: []exp.ManifestRun{
		{Key: "aaa", Workload: "BFS", Policy: "oracle", Profile: profile()},
		{Key: "bbb", Workload: "CC", Policy: "starnuma", Profile: profile()},
	}}
}

// TestDocRoundTrip checks profiles survive a manifest's encode/decode
// byte-identically and keep their labels.
func TestDocRoundTrip(t *testing.T) {
	b, err := testManifest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := exp.DecodeRuns(b, "m.json")
	if err != nil {
		t.Fatal(err)
	}
	profs := exp.Profiles(runs)
	if len(profs) != 2 || profs[0].Key != "aaa" || profs[1].Workload != "CC" {
		t.Fatalf("decoded runs %+v", profs)
	}
	b2, err := (&exp.Manifest{Schema: exp.ManifestSchema, Runs: runs}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestDecodeDocRejects checks the manifest decoder refuses documents
// whose profiles the renderers could not index safely.
func TestDecodeDocRejects(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"schema":"wrong","runs":[]}`,
		`{"schema":"starnuma-stallprof-v1","runs":[]}`,
		`{"schema":"starnuma-run-manifest-v1","runs":[{"key":"","profile":{"sockets":1,"categories":["x"],"windows":[]}}]}`,
		`{"schema":"starnuma-run-manifest-v1","runs":[{"key":"k","profile":{"sockets":0,"categories":["x"],"windows":[]}}]}`,
		`{"schema":"starnuma-run-manifest-v1","runs":[{"key":"k","profile":{"sockets":1,"categories":["x"],"windows":[{"phase":0,"total_ps":1,"cells":[1,2]}]}}]}`,
		`{"schema":"starnuma-run-manifest-v1","runs":[{"key":"k","profile":{"sockets":100000000000,"categories":["x"],"windows":[]}}]}`,
	}
	for i, c := range cases {
		if _, err := exp.DecodeRuns([]byte(c), "m.json"); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
