package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/geom"
	"sthist/internal/index"
	"sthist/internal/workload"
)

// Workload is one traffic mix. Every workload runs the same phases (see
// drive): set-up, training and a probe of held-out queries, a fixed-rate
// open loop, crashes and recoveries, and a closed-loop peak.
type Workload struct {
	Name    string
	Dataset string  // datagen name of the served table
	Scale   float64 // datagen scale
	Proxy   bool    // route traffic through sthproxy
	FbShare float64 // share of operations that are feedback
	// Serial sends feedback one request at a time, in stream order, so every
	// run drills the same observations in the same order. In the open loop
	// only one sender sends feedback and both send estimates, so estimates
	// do not wait behind a drill. Only ingest sends feedback concurrently,
	// where group commit batches it.
	Serial bool
	// Rate is the fixed-rate arrival rate in operations per second: about a
	// third of the workload's closed-loop peak_ops_s, measured once when the
	// benchmark was added and frozen here (README.md says why a third).
	Rate float64
}

// Workloads are the benchmark's traffic mixes. README.md says why each
// exists and which layer it stresses.
var Workloads = []Workload{
	{Name: "serve-direct", Dataset: "sky", Scale: 0.02, FbShare: 0.01, Serial: true, Rate: 1200},
	{Name: "serve-proxy", Dataset: "sky", Scale: 0.02, Proxy: true, FbShare: 0.01, Serial: true, Rate: 1200},
	{Name: "refine", Dataset: "sky", Scale: 0.02, FbShare: 0.5, Serial: true, Rate: 100},
	{Name: "ingest", Dataset: "cross", Scale: 1, FbShare: 0.9, Rate: 1250},
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Settings shared by every workload. The flush policy is the same
// everywhere, so checkpoints fire by record count.
const (
	buckets           = 100     // histogram bucket budget
	clusterSeed       = 1       // MineClus seed; fixed, independent of -seed
	volumeFraction    = 0.01    // query volume, data-centred (paper §5.1)
	estimatePool      = 4096    // distinct estimate queries, cycled
	probeQueries      = 500     // held-out queries for nae and the recovery check
	checkpointRecords = 1000    // -checkpoint-records
	checkpointEvery   = "100ms" // -checkpoint-interval
	// walTail is how many feedback records the log holds past its last
	// checkpoint when the node is killed, so replay work is the same on
	// every run.
	walTail = 100
	// trainFb is how many observations start the feedback stream, sent one
	// at a time before the probe that measures nae. Sent concurrently, two
	// observations reach the histogram in either order, and on some data
	// that alone moves nae by a fifth.
	trainFb = 100
	// dataSeed generates the tables, the feedback stream and the probes;
	// the run seed varies only the traffic.
	dataSeed = 1
)

// fixedShare is the part of a run's measured seconds spent in the
// fixed-rate phase; the rest is the closed-loop peak.
const fixedShare = 2.0 / 3

// opKind is an operation type.
type opKind uint8

const (
	opEstimate opKind = iota
	opFeedback
)

func (k opKind) String() string {
	if k == opFeedback {
		return "feedback"
	}
	return "estimate"
}

func (k opKind) path() string { return "/" + k.String() }

// op is one scheduled request: its type, its pre-encoded JSON body, its
// place in the phase's feedback stream and, in the open loop, when it is
// due relative to the phase start.
type op struct {
	kind opKind
	body []byte
	fb   int     // feedback ordinal within the phase
	due  float64 // seconds
}

// inputs is everything a workload run sends, generated from the seed
// before any timing starts.
type inputs struct {
	w       Workload
	seed    int64
	table   string
	tab     *dataset.Table
	binPath string
	domain  geom.Rect

	est    [][]byte // estimate bodies, cycled
	train  [][]byte // the first trainFb feedback bodies
	fb     [][]byte // feedback bodies carrying true counts, used in order after train
	fill   []byte   // one cheap feedback body, repeated to reach a checkpoint
	probes []geom.Rect
	truth  []float64 // exact counts of probes
	pbody  [][]byte  // estimate bodies of probes

	fixed    []op // the fixed-rate schedule
	fixedFb  int  // feedback ops in fixed
	fixedDur float64
	peakDur  float64
}

// buildInputs generates the table, the query pools with exact counts and
// the fixed-rate schedule for one run, and writes the table where sthistd
// reads it.
func buildInputs(w Workload, seed int64, seconds, scale float64, dir string) (*inputs, error) {
	ds, err := datagen.ByName(w.Dataset, w.Scale*scale, dataSeed)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		w: w, seed: seed, table: w.Dataset, tab: ds.Table,
		binPath:  filepath.Join(dir, w.Dataset+".bin"),
		fixedDur: seconds * fixedShare,
		peakDur:  seconds * (1 - fixedShare),
	}
	if err := writeTable(in.tab, in.binPath); err != nil {
		return nil, err
	}
	kd, err := index.BuildKDTree(in.tab)
	if err != nil {
		return nil, err
	}
	in.domain = estimatorDomain(kd.Bounds())
	count := func(q geom.Rect) float64 { return float64(kd.Count(q)) }

	queries := func(n int, s int64) ([]geom.Rect, error) {
		return workload.Generate(in.domain, workload.Config{
			VolumeFraction: volumeFraction, Centers: workload.DataCenters, N: n, Seed: s,
		}, in.tab)
	}
	// Poisson arrivals conditioned on their count: n uniform points in the
	// phase, of which exactly k are feedback, so every run has the same
	// number of operations of each type.
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	n := int(math.Round(w.Rate * in.fixedDur))
	in.fixedFb = int(math.Round(float64(n) * w.FbShare))
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * in.fixedDur
	}
	sort.Float64s(due)
	fbAt := make([]bool, n)
	for _, i := range rng.Perm(n)[:in.fixedFb] {
		fbAt[i] = true
	}

	estQ, err := queries(estimatePool, subSeed(seed, 2))
	if err != nil {
		return nil, err
	}
	// The feedback stream and the probes do not depend on the seed: every
	// run asks the histogram for the same maintenance work, in the same
	// order, and nae is comparable between runs. The peak phase runs half
	// as long as the fixed one at about twice the rate, so it needs about
	// as many feedback queries again; the margin leaves room for a faster
	// writer before the stream wraps.
	fbQ, err := queries(trainFb+3*in.fixedFb+walTail+256, dataSeed+1)
	if err != nil {
		return nil, err
	}
	if in.probes, err = queries(probeQueries, dataSeed+2); err != nil {
		return nil, err
	}
	for _, q := range estQ {
		in.est = append(in.est, body(in.table, q, nil))
	}
	for _, q := range fbQ {
		c := count(q)
		in.fb = append(in.fb, body(in.table, q, &c))
	}
	in.train, in.fb = in.fb[:trainFb], in.fb[trainFb:]
	// The fill observation is a sliver at the domain's low corner: it
	// drills once and is then nearly free, so reaching a checkpoint costs
	// little beyond the WAL appends.
	hi := make([]float64, in.domain.Dims())
	for d := range hi {
		hi[d] = in.domain.Lo[d] + 1e-3*in.domain.Side(d)
	}
	corner, err := geom.NewRect(in.domain.Lo, hi)
	if err != nil {
		return nil, err
	}
	fc := count(corner)
	in.fill = body(in.table, corner, &fc)
	for _, q := range in.probes {
		in.truth = append(in.truth, count(q))
		in.pbody = append(in.pbody, body(in.table, q, nil))
	}

	ne, nf := 0, 0
	for i, t := range due {
		if fbAt[i] {
			in.fixed = append(in.fixed, op{kind: opFeedback, body: in.fb[nf], fb: nf, due: t})
			nf++
		} else {
			in.fixed = append(in.fixed, op{kind: opEstimate, body: in.est[ne%len(in.est)], due: t})
			ne++
		}
	}
	return in, nil
}

// tail returns the feedback bodies that follow the fixed phase and stay in
// the log past its last checkpoint when the node is killed.
func (in *inputs) tail() [][]byte { return in.fb[in.fixedFb : in.fixedFb+walTail] }

// peakOp returns the j-th operation of the closed-loop peak phase; nfb
// hands out the ordinals of the peak's feedback. Operation types come from
// a hash of (seed, j), so the sequence is the same on every run whichever
// client takes which operation.
func (in *inputs) peakOp(j int, nfb func() int) op {
	if float64(mix(uint64(in.seed)^uint64(j)*0x9e3779b97f4a7c15)>>11)/(1<<53) < in.w.FbShare {
		f := nfb()
		off := in.fixedFb + walTail
		return op{kind: opFeedback, body: in.fb[off+f%(len(in.fb)-off)], fb: f}
	}
	return op{kind: opEstimate, body: in.est[j%len(in.est)]}
}

// estimatorDomain mirrors sthist.Open's default domain: the data's
// bounding box with degenerate sides inflated to unit length.
func estimatorDomain(b geom.Rect) geom.Rect {
	d := b.Clone()
	for i := range d.Lo {
		if d.Hi[i] <= d.Lo[i] {
			d.Hi[i] = d.Lo[i] + 1
		}
	}
	return d
}

type queryBody struct {
	Table  string    `json:"table"`
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	Actual *float64  `json:"actual,omitempty"`
}

func body(table string, q geom.Rect, actual *float64) []byte {
	data, err := json.Marshal(queryBody{Table: table, Lo: q.Lo, Hi: q.Hi, Actual: actual})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return data
}

func writeTable(tab *dataset.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.WriteBinary(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// subSeed derives the seed of one input stream from the run seed.
func subSeed(seed, stream int64) int64 {
	return int64(mix(uint64(seed)*0x9e3779b97f4a7c15+uint64(stream)) >> 1)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func finiteNonNegative(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
