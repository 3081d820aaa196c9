// Observability walkthrough: serve a self-tuning histogram over HTTP with
// the telemetry plane and a tracer enabled, stream a Cross workload through
// /feedback, and watch the instruments react — the rolling NAE (Eq. 10)
// decays as the histogram drills holes, /metrics exposes Prometheus series,
// and /debug/trace/spans replays the last feedback rounds: each request's
// feedback.apply span carries its round's drill/merge detail.
//
// The second act arms the drift loop and then shifts the data distribution
// mid-run (every cluster translated by 30% of the domain): the rolling NAE
// spikes, the detector fires, a candidate is re-clustered from the feedback
// reservoir, shadow-scored, and promoted — visible in /stats drift state and
// the sthist_drift_* / sthist_reseed_* metrics as the error recovers.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/drift"
	"sthist/internal/geom"
	"sthist/internal/httpapi"
	"sthist/internal/index"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
	"sthist/internal/workload"
)

// shiftTable returns a copy of tab with every coordinate rotated by frac of
// the domain side (modulo the domain): the same tuples, every cluster
// somewhere else — a pure distribution shift.
func shiftTable(tab *dataset.Table, dom geom.Rect, frac float64) *dataset.Table {
	d := tab.Dims()
	out := dataset.MustNew(tab.Names()...)
	out.Grow(tab.Len())
	row := make([]float64, d)
	for i := 0; i < tab.Len(); i++ {
		for j := 0; j < d; j++ {
			lo, side := dom.Lo[j], dom.Hi[j]-dom.Lo[j]
			v := tab.Value(i, j) - lo + frac*side
			for v >= side {
				v -= side
			}
			row[j] = lo + v
		}
		out.MustAppend(row)
	}
	return out
}

// buildWait is how long the demo pauses after a drift trigger: far longer
// than re-clustering the 2,048-point feedback cloud takes.
const buildWait = 200 * time.Millisecond

func run(w io.Writer) error {
	// A clustered dataset and an uninitialized histogram: accuracy starts
	// poor, so the learning curve is visible in the rolling error.
	ds := datagen.Cross(0.04, 1)
	est, err := sthist.Open(ds.Table, sthist.Options{
		Buckets: 100, Seed: 1, SkipInitialization: true,
	})
	if err != nil {
		return err
	}

	tel := telemetry.New(telemetry.Options{Window: 100, SlowThreshold: -1})
	srv := httpapi.NewServer()
	srv.EnableTelemetry(tel)
	srv.SetTracer(trace.New(trace.Options{Service: "obs", SampleRate: 1, Seed: 1}))
	if err := srv.Register(ds.Name, est); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stream query feedback through the HTTP API, exactly as a query
	// engine would, and sample the rolling NAE every 100 rounds.
	qs := workload.MustGenerate(ds.Domain, workload.Config{
		VolumeFraction: 0.01, N: 400, Seed: 7,
	}, ds.Table)
	truth, err := sthist.ExactCounts(ds.Table)
	if err != nil {
		return err
	}
	rec := tel.Table(ds.Name)
	fmt.Fprintf(w, "rolling NAE over the last %d rounds (Eq. 10), sampled as the histogram learns:\n", 100)
	for i, q := range qs {
		body, err := json.Marshal(map[string]any{
			"table":  ds.Name,
			"lo":     q.Lo,
			"hi":     q.Hi,
			"actual": truth(q),
		})
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("feedback round %d: status %d", i, resp.StatusCode)
		}
		if (i+1)%100 == 0 {
			n, mae, nae := rec.Rolling()
			fmt.Fprintf(w, "  after %3d rounds: NAE=%.4f MAE=%.2f (window=%d)\n", i+1, nae, mae, n)
		}
	}

	// Scrape /metrics like Prometheus would and show a few series.
	metrics, err := get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nselected /metrics series:")
	for _, line := range strings.Split(metrics, "\n") {
		for _, prefix := range []string{
			"sthist_feedback_rounds_total",
			"sthist_buckets{",
			"sthist_tree_depth{",
			"sthist_rolling_nae{",
			"sthist_merges_total{",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
	}

	// Replay the newest rounds from the span rings: every feedback.apply
	// span carries its round, with one sthole.merge child per merge.
	spans, err := get(ts.URL + "/debug/trace/spans")
	if err != nil {
		return err
	}
	var sp struct {
		Spans []trace.SpanData `json:"spans"`
	}
	if err := json.Unmarshal([]byte(spans), &sp); err != nil {
		return err
	}
	var applies []trace.SpanData
	merges := map[string]int{} // by parent feedback.apply span ID
	for _, sd := range sp.Spans {
		switch sd.Name {
		case "feedback.apply":
			applies = append(applies, sd)
		case "sthole.merge":
			merges[sd.ParentID]++
		}
	}
	fmt.Fprintln(w, "\nnewest rounds (feedback.apply spans from /debug/trace/spans):")
	for _, ap := range applies[max(0, len(applies)-2):] {
		attr := map[string]string{}
		for _, a := range ap.Attrs {
			attr[a.Key] = a.Value
		}
		est, _ := strconv.ParseFloat(attr["est"], 64) // the writer formats it; only rounded here
		fmt.Fprintf(w, "  round: est=%.1f actual=%s drills=%s merges=%d\n",
			est, attr["actual"], attr["drills"], merges[ap.SpanID])
	}

	// Act two: arm the drift loop, then shift the distribution under the
	// running server. The histogram's structure is now wrong everywhere; the
	// detector notices via the rolling NAE and re-seeds from feedback.
	dcfg := drift.DefaultConfig()
	dcfg.NAEThreshold = 0.5
	dcfg.MinRounds = 50
	dcfg.Cooldown = 60
	dcfg.Probation = 40
	dcfg.MinReservoir = 24
	dcfg.ClusterWidthFrac = 0.04
	if err := srv.EnableDrift(ds.Name, dcfg); err != nil {
		return err
	}
	shifted := shiftTable(ds.Table, ds.Domain, 0.3)
	idx, err := index.BuildKDTree(shifted)
	if err != nil {
		return err
	}
	shiftQs := workload.MustGenerate(ds.Domain, workload.Config{
		VolumeFraction: 0.01, N: 600, Seed: 8,
	}, shifted)
	fmt.Fprintf(w, "\ndistribution shift injected (clusters translated 30%%); drift loop armed at NAE > %.2f:\n", dcfg.NAEThreshold)
	var triggers uint64
	for i, q := range shiftQs {
		body, err := json.Marshal(map[string]any{
			"table":  ds.Name,
			"lo":     q.Lo,
			"hi":     q.Hi,
			"actual": float64(idx.Count(q)),
		})
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("shifted feedback round %d: status %d", i, resp.StatusCode)
		}
		stats, err := get(ts.URL + "/stats?table=" + ds.Name)
		if err != nil {
			return err
		}
		var st struct {
			Drift struct {
				State    string `json:"state"`
				Triggers uint64 `json:"triggers"`
				Promoted uint64 `json:"promoted"`
				Rejected uint64 `json:"rejected"`
			} `json:"drift"`
		}
		if err := json.Unmarshal([]byte(stats), &st); err != nil {
			return err
		}
		// A trigger starts a background candidate build, and the round after
		// it finishes opens probation. Let the build finish before the next
		// round, so the outcome does not depend on how fast the build runs.
		if st.Drift.Triggers > triggers {
			triggers = st.Drift.Triggers
			time.Sleep(buildWait)
		}
		if (i+1)%100 == 0 {
			_, _, nae := rec.Rolling()
			fmt.Fprintf(w, "  after %3d shifted rounds: NAE=%.4f drift=%s triggers=%d promoted=%d rejected=%d\n",
				i+1, nae, st.Drift.State, st.Drift.Triggers, st.Drift.Promoted, st.Drift.Rejected)
		}
	}

	metrics, err = get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ndrift /metrics series after the shift:")
	for _, line := range strings.Split(metrics, "\n") {
		for _, prefix := range []string{
			"sthist_drift_triggers_total",
			"sthist_reseed_promoted_total",
			"sthist_reseed_rejected_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
	}
	return nil
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(data), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
