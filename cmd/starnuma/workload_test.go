package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorkloadDumpInputs(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		code    int
		wantOut string // substring of stdout (code 0) or stderr (otherwise)
	}{
		{"zero budget", []string{"-instr", "0"}, exitUsage, "-instr"},
		{"negative phase", []string{"-phase", "-1"}, exitUsage, "-phase"},
		{"ok", []string{"-workload", "CC", "-scale", "0.05", "-phase", "1", "-instr", "500"}, exitOK, "wrote"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".sntr")
			args := append([]string{"workload", "dump", "-o", out}, c.args...)
			code, stdout, stderr := capture(t, args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			msg := stderr
			if code == exitOK {
				msg = stdout
			}
			if !strings.Contains(msg, c.wantOut) {
				t.Errorf("output lacks %q:\n%s", c.wantOut, msg)
			}
			if _, err := os.Stat(out); (err == nil) != (code == exitOK) {
				t.Errorf("trace file exists = %v after exit %d", err == nil, code)
			}
		})
	}
}
