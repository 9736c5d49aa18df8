package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"starnuma/internal/exp"
)

// capture runs one in-process invocation and returns its exit code and
// what it wrote to stdout and stderr.
func capture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saveOut, saveErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = saveOut, saveErr
	outF.Close()
	errF.Close()
	o, _ := os.ReadFile(outF.Name())
	e, _ := os.ReadFile(errF.Name())
	return code, string(o), string(e)
}

func TestDispatchUsage(t *testing.T) {
	for group := range groups {
		if code, _, stderr := capture(t, group); code != exitUsage || !strings.Contains(stderr, "usage: starnuma "+group) {
			t.Errorf("starnuma %s: exit %d, want %d with usage; stderr:\n%s", group, code, exitUsage, stderr)
		}
		if code, stdout, _ := capture(t, group, "help"); code != exitOK || !strings.Contains(stdout, "usage: starnuma "+group) {
			t.Errorf("starnuma %s help: exit %d, want %d with usage; stdout:\n%s", group, code, exitOK, stdout)
		}
		if code, _, _ := capture(t, group, "bogus"); code != exitUsage {
			t.Errorf("starnuma %s bogus: exit %d, want %d", group, code, exitUsage)
		}
	}
	if code, _, stderr := capture(t, "bogus"); code != exitUsage || !strings.Contains(stderr, `unknown command "bogus"`) {
		t.Errorf("starnuma bogus: exit %d, want %d; stderr:\n%s", code, exitUsage, stderr)
	}
	if code, _, stderr := capture(t, "-h"); code != exitOK || !strings.Contains(stderr, "-metrics") || strings.Contains(stderr, "-attrib") {
		t.Errorf("starnuma -h: exit %d; stderr:\n%s", code, stderr)
	}
	if code, _, _ := capture(t); code != exitUsage {
		t.Errorf("starnuma with no arguments: exit %d, want %d", code, exitUsage)
	}
}

// TestManifestEndToEnd runs one tiny experiment with -metrics and reads
// the manifest back through both readers of the shared decoder.
func TestManifestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	m := filepath.Join(t.TempDir(), "m.json")
	code, _, stderr := capture(t, "-exp", "fig8a", "-quick", "-scale", "0.05", "-phases", "2",
		"-workloads", "BFS", "-nocache", "-metrics", m)
	if code != exitOK {
		t.Fatalf("experiment exit %d:\n%s", code, stderr)
	}
	data, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := exp.DecodeRuns(data, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("manifest has no runs")
	}
	var want []string
	for _, r := range runs {
		if r.Metrics.Empty() || r.Profile == nil {
			t.Errorf("run %s lacks metrics or profile", r.Key)
		}
		want = append(want, r.Key)
	}

	if code, _, stderr := capture(t, "prof", "report", "-require", m); code != exitOK {
		t.Errorf("prof report -require: exit %d:\n%s", code, stderr)
	}
	code, stdout, stderr := capture(t, "stat", "dump", m)
	if code != exitOK {
		t.Fatalf("stat dump: exit %d:\n%s", code, stderr)
	}
	var got []string
	for _, match := range regexp.MustCompile(`(?m)^== (.*) ==$`).FindAllStringSubmatch(stdout, -1) {
		got = append(got, match[1])
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stat dump lists runs %v, manifest has %v", got, want)
	}
}
