package sthist

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (§5), plus the tech-report extra and the ablations
// DESIGN.md calls out. Each bench regenerates the experiment's rows/series
// at a reduced scale (see EXPERIMENTS.md for the scale policy and the
// recorded paper-vs-measured comparison); the CLI (`go run ./cmd/sthist
// -exp <id> -scale 1 -train 1000 -eval 1000`) reproduces them at paper
// scale with identical code.
//
// The interesting output is the experiment result itself, which each bench
// prints once via b.Logf (visible with `go test -bench . -v`); wall-clock
// time per iteration doubles as the "Sim. time" measurement of Table 2.

import (
	"bytes"
	"fmt"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/experiment"
	"sthist/internal/workload"
)

// benchConfig is the reduced scale used by every bench: ~1/25th of the
// paper's tuple counts and 150+150 queries.
func benchConfig() experiment.Config {
	cfg := experiment.Defaults()
	cfg.Scale = 0.04
	cfg.TrainQueries = 150
	cfg.EvalQueries = 150
	cfg.Buckets = []int{50, 100, 250}
	return cfg
}

// runExperiment executes the named experiment b.N times, logging the first
// iteration's rendered result.
func runExperiment(b *testing.B, name string, cfg experiment.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiment.Run(name, cfg, &buf); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", buf.String())
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset inventory).
func BenchmarkTable1Datasets(b *testing.B) {
	runExperiment(b, "table1", benchConfig())
}

// BenchmarkFig11Cross regenerates Fig. 11: Cross[1%] init vs uninit.
func BenchmarkFig11Cross(b *testing.B) {
	runExperiment(b, "fig11", benchConfig())
}

// BenchmarkFig12Gauss regenerates Fig. 12: Gauss[1%].
func BenchmarkFig12Gauss(b *testing.B) {
	runExperiment(b, "fig12", benchConfig())
}

// BenchmarkFig13Sky regenerates Fig. 13: Sky[1%] incl. reversed init.
func BenchmarkFig13Sky(b *testing.B) {
	runExperiment(b, "fig13", benchConfig())
}

// BenchmarkTable2MineclusParams regenerates Table 2: the MineClus parameter
// sweep with clustering and simulation times.
func BenchmarkTable2MineclusParams(b *testing.B) {
	runExperiment(b, "table2", benchConfig())
}

// BenchmarkFig14Sky2pct regenerates Fig. 14: Sky[2%].
func BenchmarkFig14Sky2pct(b *testing.B) {
	runExperiment(b, "fig14", benchConfig())
}

// BenchmarkTable3HighDimCross regenerates Table 3 (Cross3d/4d/5d inventory).
func BenchmarkTable3HighDimCross(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.01 // Cross5d is 13.5M tuples at scale 1
	runExperiment(b, "table3", cfg)
}

// BenchmarkFig15Dimensionality regenerates Fig. 15: the Cross3d/4d/5d error
// sweep.
func BenchmarkFig15Dimensionality(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.01
	cfg.Buckets = []int{50, 100}
	runExperiment(b, "fig15", cfg)
}

// BenchmarkTable4SkyClusters regenerates Table 4: clusters found in Sky.
func BenchmarkTable4SkyClusters(b *testing.B) {
	runExperiment(b, "table4", benchConfig())
}

// BenchmarkSubspaceBucketSurvival regenerates the §5.3 subspace-bucket
// survival inspection.
func BenchmarkSubspaceBucketSurvival(b *testing.B) {
	cfg := benchConfig()
	cfg.Buckets = []int{100}
	runExperiment(b, "subspace-buckets", cfg)
}

// BenchmarkFig16HeavyTraining regenerates Fig. 16: 19x-trained uninit vs
// initialized.
func BenchmarkFig16HeavyTraining(b *testing.B) {
	cfg := benchConfig()
	cfg.Buckets = []int{50, 100}
	cfg.TrainQueries = 100
	cfg.EvalQueries = 100
	runExperiment(b, "fig16", cfg)
}

// BenchmarkFig17TrainingAmount regenerates Fig. 17: error vs number of
// training queries with learning frozen afterwards.
func BenchmarkFig17TrainingAmount(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.01
	runExperiment(b, "fig17", cfg)
}

// BenchmarkExample1OrderSensitivity measures the §3.1 demonstration: two
// workload orders, different histograms. The heavy lifting is asserted in
// internal/sthole's TestExample1OrderSensitivity; the bench tracks its cost.
func BenchmarkExample1OrderSensitivity(b *testing.B) {
	cfg := benchConfig()
	cfg.Buckets = []int{50}
	cfg.TrainQueries = 60
	cfg.EvalQueries = 100
	runExperiment(b, "ablation-order", cfg)
}

// BenchmarkExtraHighDim regenerates the tech report's 18-dimensional
// experiment.
func BenchmarkExtraHighDim(b *testing.B) {
	cfg := benchConfig()
	cfg.TrainQueries = 100
	cfg.EvalQueries = 100
	runExperiment(b, "extra-highdim", cfg)
}

// BenchmarkAblationInitOrder regenerates the initialization-order ablation.
func BenchmarkAblationInitOrder(b *testing.B) {
	runExperiment(b, "ablation-order", benchConfig())
}

// BenchmarkAblationExtendedBR regenerates the extended-BR vs MBR ablation.
func BenchmarkAblationExtendedBR(b *testing.B) {
	runExperiment(b, "ablation-ebr", benchConfig())
}

// BenchmarkAblationClusterer regenerates the MineClus-vs-CLIQUE initializer
// comparison.
func BenchmarkAblationClusterer(b *testing.B) {
	runExperiment(b, "ablation-clusterer", benchConfig())
}

// BenchmarkBaselineSelfTuning regenerates the ST-grid vs STHoles vs
// initialized STHoles comparison.
func BenchmarkBaselineSelfTuning(b *testing.B) {
	runExperiment(b, "baseline-selftuning", benchConfig())
}

// BenchmarkBaselineStatic regenerates the static-MHIST comparison.
func BenchmarkBaselineStatic(b *testing.B) {
	runExperiment(b, "baseline-static", benchConfig())
}

// BenchmarkWorkloadPatterns regenerates the workload-pattern robustness
// check of §5.1.
func BenchmarkWorkloadPatterns(b *testing.B) {
	runExperiment(b, "workload-patterns", benchConfig())
}

// BenchmarkClusterQuality regenerates the clustering-quality evaluation
// against generator ground truth.
func BenchmarkClusterQuality(b *testing.B) {
	runExperiment(b, "cluster-quality", benchConfig())
}

// BenchmarkPlanQuality regenerates the optimizer plan-regret comparison.
func BenchmarkPlanQuality(b *testing.B) {
	runExperiment(b, "plan-quality", benchConfig())
}

// BenchmarkLearningCurve regenerates the training-trajectory experiment.
func BenchmarkLearningCurve(b *testing.B) {
	runExperiment(b, "learning-curve", benchConfig())
}

// BenchmarkSelectivityProfile regenerates the per-selectivity-band q-error
// breakdown.
func BenchmarkSelectivityProfile(b *testing.B) {
	runExperiment(b, "selectivity-profile", benchConfig())
}

// BenchmarkAnatomy regenerates the histogram structure statistics.
func BenchmarkAnatomy(b *testing.B) {
	runExperiment(b, "anatomy", benchConfig())
}

// BenchmarkSkyTrueCountRound times the feedback round the end-to-end
// benchmark's refine workload sends: a query's true count through Feedback,
// on SkySim(0.02) (7 dimensions) seeded by MineClus, with 1% queries centred
// on data rows, at 100 and 250 buckets. Unlike the sthole micro-benchmarks,
// which drill a 2-d tree with idealized uniform-cluster counts, it runs the
// seeded tree, whose root keeps 40 to 140 children, through the estimator's
// interpolation, validation and snapshot publication. The workload is
// drilled once before timing, and every op replays it from that saved tree,
// so b.N does not change the path; us/round is the mean per observation.
func BenchmarkSkyTrueCountRound(b *testing.B) {
	ds := datagen.SkySim(0.02, 1)
	for _, buckets := range []int{100, 250} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			est, err := Open(ds.Table, Options{Buckets: buckets, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			qs := workload.MustGenerate(est.Domain(), workload.Config{
				VolumeFraction: 0.01, Centers: workload.DataCenters, N: 64, Seed: 7,
			}, ds.Table)
			truth := exactCounts(b, ds.Table)
			actuals := make([]float64, len(qs))
			for i, q := range qs {
				actuals[i] = truth(q)
			}
			for i, q := range qs {
				if err := est.Feedback(q, actuals[i]); err != nil {
					b.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := est.SaveHistogram(&snap); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := est.LoadHistogram(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j, q := range qs {
					if err := est.Feedback(q, actuals[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(qs)), "us/round")
		})
	}
}
