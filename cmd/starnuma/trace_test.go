package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starnuma/internal/evtrace"
	"starnuma/internal/sim"
)

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"0", 0},
		{"1500", 1500},
		{"1500ps", 1500},
		{"2ns", 2 * sim.Nanosecond},
		{"1.5us", sim.Microsecond + 500*sim.Nanosecond},
		{"3ms", 3 * sim.Millisecond},
	}
	for _, c := range cases {
		got, err := parseTime(c.in)
		if err != nil {
			t.Fatalf("parseTime(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("parseTime(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"abcus", "NaN", "-1ns", "+Inf", "1e30ms"} {
		if _, err := parseTime(bad); err == nil {
			t.Errorf("parseTime(%s) should fail", bad)
		}
	}
}

func TestFilter(t *testing.T) {
	buf := evtrace.NewBuffer()
	buf.Span("window", "w0", "sim", 0, 10*sim.Microsecond)
	buf.Span("migrate", "m", "socket0", 5*sim.Microsecond, sim.Microsecond)
	buf.Instant("tlb", "shoot", "socket1", 20*sim.Microsecond)

	bd := evtrace.NewBuilder()
	bd.Add("", buf)
	tr := bd.Build()
	meta := 0
	for _, e := range tr.Events {
		if e.Ph == evtrace.PhMeta {
			meta++
		}
	}

	// Category filter keeps metadata plus the matching events.
	got := filter(tr, 0, 0, map[string]bool{"migrate": true})
	if want := meta + 1; len(got.Events) != want {
		t.Errorf("cat filter: %d events, want %d", len(got.Events), want)
	}

	// Time filter: [0, 4us] overlaps the window span only.
	got = filter(tr, 0, 4*sim.Microsecond, nil)
	if want := meta + 1; len(got.Events) != want {
		t.Errorf("time filter: %d events, want %d", len(got.Events), want)
	}

	// Unbounded end keeps everything.
	got = filter(tr, 0, 0, nil)
	if len(got.Events) != len(tr.Events) {
		t.Errorf("no-op filter: %d events, want %d", len(got.Events), len(tr.Events))
	}
}

func TestCatSet(t *testing.T) {
	if catSet("") != nil {
		t.Error("empty list should be nil (match all)")
	}
	set := catSet("migrate, window,")
	if len(set) != 2 || !set["migrate"] || !set["window"] {
		t.Errorf("catSet = %v", set)
	}
}

// TestTraceCommandInputs runs the trace commands in-process over a
// small valid trace and an invalid one: -n <= 0 lists every span, bad
// times fail naming their flag, an inverted range is refused, and slice
// validates its input like summarize and export do.
func TestTraceCommandInputs(t *testing.T) {
	dir := t.TempDir()
	buf := evtrace.NewBuffer()
	buf.Span("window", "w0", "sim", 0, 10*sim.Microsecond)
	buf.Span("migrate", "m", "socket0", 5*sim.Microsecond, sim.Microsecond)
	bd := evtrace.NewBuilder()
	bd.Add("", buf)
	b, err := bd.Build().Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "trace.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// A span whose pid has no process_name metadata fails Validate.
	if err := os.WriteFile(bad, []byte(`[{"ph":"X","name":"w","cat":"window","ts":1,"dur":1,"pid":7}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string // substring of stdout (code 0) or stderr (otherwise)
		lines   int    // stdout lines when > 0
	}{
		{"top all with -n -1", []string{"top", "-n", "-1", good}, exitOK, "migrate", 3},
		{"top all with -n 0", []string{"top", "-n", "0", good}, exitOK, "window", 3},
		{"top one", []string{"top", "-n", "1", good}, exitOK, "window", 2},
		{"slice NaN", []string{"slice", "-from", "NaN", good}, exitRuntime, "-from", 0},
		{"slice negative", []string{"slice", "-from", "-5us", good}, exitRuntime, "-from", 0},
		{"slice overflow", []string{"slice", "-to", "1e30ms", good}, exitRuntime, "-to", 0},
		{"slice inverted", []string{"slice", "-from", "10us", "-to", "5us", good}, exitRuntime, "before -from", 0},
		{"slice invalid trace", []string{"slice", bad}, exitRuntime, "process_name", 0},
		{"slice ok", []string{"slice", "-from", "4us", "-to", "5500ns", "-cat", "migrate", good}, exitOK, `"name":"m"`, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := capture(t, append([]string{"trace"}, c.args...)...)
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			out := stderr
			if code == exitOK {
				out = stdout
			}
			if !strings.Contains(out, c.wantOut) {
				t.Errorf("output lacks %q:\n%s", c.wantOut, out)
			}
			if n := strings.Count(stdout, "\n"); c.lines > 0 && n != c.lines {
				t.Errorf("%d stdout lines, want %d:\n%s", n, c.lines, stdout)
			}
		})
	}
}
