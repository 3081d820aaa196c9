package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"rolling NAE",
		"sthist_feedback_rounds_total",
		"sthist_rolling_nae{",
		"newest rounds (feedback.apply spans",
		"distribution shift injected",
		"sthist_drift_triggers_total",
		"sthist_reseed_promoted_total",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// The learning must be visible: the first sampled NAE exceeds the last
	// of the stationary act.
	naes := regexp.MustCompile(`NAE=([0-9.]+)`).FindAllStringSubmatch(
		s[:strings.Index(s, "distribution shift")], -1)
	if len(naes) < 2 {
		t.Fatalf("expected several NAE samples, got %d:\n%s", len(naes), s)
	}
	first, last := naes[0][1], naes[len(naes)-1][1]
	if !(last < first) { // string compare works: fixed %.4f width
		t.Errorf("rolling NAE did not decay: first=%s last=%s", first, last)
	}
	// The drift act must detect the shift and recover: at least one trigger
	// and one promotion, and the final shifted-era NAE below the first.
	shifts := regexp.MustCompile(`NAE=([0-9.]+) drift=`).FindAllStringSubmatch(s, -1)
	if len(shifts) < 2 {
		t.Fatalf("expected several shifted-era samples, got %d:\n%s", len(shifts), s)
	}
	if sfirst, slast := shifts[0][1], shifts[len(shifts)-1][1]; !(slast < sfirst) {
		t.Errorf("shifted-era NAE did not recover: first=%s last=%s", sfirst, slast)
	}
	if !regexp.MustCompile(`sthist_reseed_promoted_total\{[^}]*\} [1-9]`).MatchString(s) {
		t.Errorf("no promotion recorded in /metrics:\n%s", s)
	}
}
