// Package bench is the repository's end-to-end benchmark: it generates a
// workload's inputs from a seed, serves them with the real sthistd and
// sthproxy binaries on loopback, drives them with an open-loop generator and
// checks the answers. A traced run assembles the same layers in one process
// and times every public boundary it can reach, so the client-observed cost
// breaks down into per-layer costs. See README.md.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Spec is the part of BENCHMARK.json the harness checks its output against:
// the workload names and every metric's name and unit.
type Spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload is one workload entry of BENCHMARK.json.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one metric entry of BENCHMARK.json. Bound is set only for
// end-to-end metrics: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json and checks that its workloads are the ones
// this harness implements.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var have, want []string
	for _, w := range s.Workloads {
		have = append(have, w.Name)
	}
	for _, w := range Workloads {
		want = append(want, w.Name)
	}
	sort.Strings(have)
	sort.Strings(want)
	if fmt.Sprint(have) != fmt.Sprint(want) {
		return nil, fmt.Errorf("%s lists workloads %v, the harness implements %v", path, have, want)
	}
	return &s, nil
}

// Select returns the metrics of res named in list, in list order, and an
// error naming every listed metric that is missing or carries another unit.
func Select(res map[string]Metric, list []SpecMetric) (map[string]Metric, error) {
	out := make(map[string]Metric, len(list))
	var bad []string
	for _, m := range list {
		got, ok := res[m.Name]
		switch {
		case !ok:
			bad = append(bad, m.Name+" (missing)")
		case got.Unit != m.Unit:
			bad = append(bad, fmt.Sprintf("%s (unit %q, spec says %q)", m.Name, got.Unit, m.Unit))
		default:
			out[m.Name] = got
		}
	}
	if len(bad) > 0 {
		return out, fmt.Errorf("metrics do not match BENCHMARK.json: %v", bad)
	}
	return out, nil
}
