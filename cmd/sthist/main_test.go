package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("50, 100,250")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{50, 100, 250}) {
		t.Errorf("parseInts = %v", got)
	}
	if _, err := parseInts("50,x"); err == nil {
		t.Error("non-numeric accepted")
	}
	if _, err := parseInts("0"); err == nil {
		t.Error("non-positive bucket accepted")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresMode(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -exp/-all/-list accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSmallTable3(t *testing.T) {
	if err := run([]string{"-exp", "table3", "-scale", "0.001", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadBuckets(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-buckets", "abc"}); err == nil {
		t.Error("bad -buckets accepted")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	if err := run([]string{"-exp", "table3", "-scale", "0.001", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-exp", "table3", "-scale", "0.001", "-cpuprofile", filepath.Join(dir, "no", "such", "dir", "cpu.out")}); err == nil {
		t.Error("unwritable cpu profile path accepted")
	}
}

func TestRunOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res.txt")
	if err := run([]string{"-exp", "table3", "-scale", "0.001", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Cross3d") {
		t.Errorf("output file missing results: %s", data)
	}
}

// TestRunTrace runs -trace 5 on a small Cross session: five JSON round
// lines, oldest first, each with the round's query, truth and maintenance
// counts, then the rolling summary.
func TestRunTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.txt")
	if err := run([]string{"-trace", "5", "-scale", "0.01", "-train", "40", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 5 rounds + summary:\n%s", len(lines), data)
	}
	for i, line := range lines[:5] {
		var r struct {
			Seq    int `json:"seq"`
			Query  struct{ Lo, Hi []float64 }
			Actual *float64 `json:"actual"`
			Drills *int     `json:"drills"`
			Ns     int64    `json:"ns"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, line)
		}
		if r.Seq != 35+i || len(r.Query.Lo) != 2 || r.Actual == nil || r.Drills == nil || r.Ns <= 0 {
			t.Errorf("line %d: incomplete round %s", i, line)
		}
	}
	if !strings.HasPrefix(lines[5], "# ") || !strings.Contains(lines[5], "40 rounds traced") || !strings.Contains(lines[5], "NAE=") {
		t.Errorf("summary line = %q", lines[5])
	}
}
