package bench

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Report is the file sthbench -out writes: the host, the settings and every
// workload's checks and metrics. benchcmp compares sets of them.
type Report struct {
	Commit  string    `json:"commit"`
	Go      string    `json:"go"`
	NProc   int       `json:"nproc"`
	CPU     string    `json:"cpu"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Results []*Result `json:"results"`
}

// NewReport describes the host and the commit checked out at root.
func NewReport(ctx context.Context, root string, cfg Config) *Report {
	r := &Report{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: "unknown",
		Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace}
	// Only root's own repository counts: a checkout without .git must not
	// report the commit of a repository it happens to sit in. A tree with
	// uncommitted changes reports its commit with a -dirty suffix.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty", "--abbrev=40")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			r.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				r.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return r
}

// Write stores the report as indented JSON.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by Write.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
