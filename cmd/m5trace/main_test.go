package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m5/internal/mem"
	"m5/internal/trace"
)

// writeTrace records a short synthetic trace: a few hot pages revisited
// across several 1ms query periods.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.m5t")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		a := trace.Access{Time: uint64(i) * 1000, Addr: mem.PhysAddr(uint64(i%7)<<12 | uint64(i%64)<<6)}
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Bad tracker flags must come back as errors: a negative K used to panic
// in the Space-Saving query or the CAM constructor, and a negative N ran
// silently as a 4x1 sketch.
func TestReplayRejectsBadTrackerFlags(t *testing.T) {
	path := writeTrace(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algorithm", "space-saving", "-k", "-3"}, "K must not be negative"},
		{[]string{"-algorithm", "cm-sketch", "-k", "-1"}, "K must not be negative"},
		{[]string{"-entries", "-8"}, "Entries must not be negative"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			err := replay(append([]string{"-i", path}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay %v: err = %v, want %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestReplayScoresValidFlags(t *testing.T) {
	path := writeTrace(t)
	for _, alg := range []string{"space-saving", "cm-sketch"} {
		if err := replay([]string{"-i", path, "-algorithm", alg, "-entries", "16", "-k", "3"}); err != nil {
			t.Errorf("replay -algorithm %s: %v", alg, err)
		}
	}
}

// TestProfileReportsPACAndWAC runs the offline PAC/WAC profiler at tiny
// scale: all three tables render, the hot-page table lists -top pages,
// and a bad scale is an error.
func TestProfileReportsPACAndWAC(t *testing.T) {
	var out bytes.Buffer
	if err := profile(&out, []string{"-workload", "redis", "-scale", "tiny", "-accesses", "200000", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"workload redis (tiny)",
		"PAC: top-5 hot pages",
		"PAC: per-page access-count percentiles",
		"WAC: P(page has at most N unique words accessed)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("profile output lacks %q:\n%s", want, out.String())
		}
	}
	if err := profile(&out, []string{"-scale", "giant"}); err == nil {
		t.Error("unknown scale should error")
	}
}
