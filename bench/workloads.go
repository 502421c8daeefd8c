package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
)

// runConfig is one run's settings. The seed generates every input; the
// program under test only ever sees the generated documents.
type runConfig struct {
	seed int64
	// seconds is the length of the measured phase.
	seconds float64
	// maxOps > 0 ends a closed loop after that many operations even if
	// time remains (the smoke tests use it).
	maxOps int
	// toy shrinks the paper-scale documents to 4M rows (tests).
	toy bool
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps int
	// warmups is the number of untimed operations before measuring.
	warmups int
	// trace adds the layer replay of advisories to the run.
	trace bool
	// advisories is how many advisories the layer replay traces.
	advisories int
	// outDir receives trace files and the job directories.
	outDir string
}

func defaultConfig(seed int64, seconds float64) *runConfig {
	return &runConfig{seed: seed, seconds: seconds, setupReps: 5, warmups: 3, advisories: 5, outDir: "bench/out"}
}

// rowOffset is the seeded row-count offset every workload adds to its
// documents: 1,000 rows per seed step, cycling every 100 seeds.
func (rc *runConfig) rowOffset() int64 {
	return 1000 * (((rc.seed % 100) + 100) % 100)
}

// deadline reports whether a closed loop that started at start and has
// run n operations should stop.
func (rc *runConfig) deadline(start time.Time, n int) bool {
	if rc.maxOps > 0 && n >= rc.maxOps {
		return true
	}
	return time.Since(start).Seconds() >= rc.seconds
}

// recorder collects the measured phase of one run.
type recorder struct {
	lat      []float64 // per-op latency in ms (the percentiles' samples)
	attempts int
	failed   int
	wrong    int // failed ops whose output was wrong (not merely refused)
	errs     []string
	wall     time.Duration
}

func (r *recorder) ok(lat time.Duration) {
	r.attempts++
	r.lat = append(r.lat, ms(lat))
}

// fail records a failed op; wrong marks an op that completed with a wrong
// output rather than being refused.
func (r *recorder) fail(wrong bool, err error) {
	r.attempts++
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// warmup runs one untimed operation.
	warmup() error
	// measure runs the timed phase into rec and adds the workload's own
	// layer metrics to m. Latency percentiles are taken over rec.lat.
	measure(rec *recorder, m map[string]float64) error
	// replayDoc is the document the traced layer replay advises.
	replayDoc() *config.Document
	// finish runs the end-of-run output checks and releases everything the
	// instance holds; with check false it only releases.
	finish(check bool) error
}

// workload is one named benchmark workload. BENCHMARK.json and README.md
// record why each exists.
type workload struct {
	name  string
	setup func(rc *runConfig) (instance, error)
}

var workloads = []workload{
	{"cli-apb1", setupCLI},
	{"skewed-greedy", setupSkewed},
	{"service-mix", setupService},
	{"sweep-job", setupSweepJob},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// runResult is one workload run as written to result files.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// run sets the workload up setupReps times (timing each), warms it up,
// measures it, checks its outputs and, when tracing, replays advisories
// layer by layer.
func (w *workload) run(rc *runConfig) (*runResult, error) {
	goroutines := runtime.NumGoroutine()
	var inst instance
	var setups []float64
	for i := 0; i < max(rc.setupReps, 1); i++ {
		if inst != nil {
			if err := inst.finish(false); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if inst, err = w.setup(rc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	for i := 0; i < rc.warmups; i++ {
		if err := inst.warmup(); err != nil {
			inst.finish(false)
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}

	m := map[string]float64{}
	rec := &recorder{}
	runtime.GC()
	before := readRuntime()
	heap := startHeapSampler()
	err := inst.measure(rec, m)
	m["runtime.heap_peak_mb"] = heap.done()
	after := readRuntime()
	if err != nil {
		inst.finish(false)
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &runResult{Workload: w.name, Seed: rc.seed, Attempted: rec.attempts, Failed: rec.failed,
		Samples: len(rec.lat), Metrics: m, Errors: rec.errs}
	res.Correct = rec.wrong == 0
	if err := inst.finish(true); err != nil {
		res.Correct = false
		res.Errors = append(res.Errors, err.Error())
	}

	ops := float64(max(rec.attempts, 1))
	m["setup_s"] = percentile(setups, 0.5)
	m["latency_p50_ms"] = percentile(rec.lat, 0.5)
	m["latency_p90_ms"] = percentile(rec.lat, 0.9)
	m["throughput_ops_s"] = float64(rec.attempts-rec.failed) / rec.wall.Seconds()
	m["allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	m["alloc_mb_per_op"] = float64(after.totalAlloc-before.totalAlloc) / 1e6 / ops
	m["runtime.gc_cycles_per_op"] = float64(after.gcCycles-before.gcCycles) / ops
	m["runtime.gc_pause_ms_per_op"] = (after.gcPauseSec - before.gcPauseSec) * 1e3 / ops

	if rc.trace {
		if err := traceRun(rc, w.name, inst, m); err != nil {
			res.Correct = false
			res.Errors = append(res.Errors, err.Error())
		}
	}
	m["runtime.goroutines_leaked"] = float64(settleGoroutines(goroutines))
	return res, nil
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// back to base and returns how many goroutines remain beyond it.
func settleGoroutines(base int) int {
	for i := 0; ; i++ {
		n := runtime.NumGoroutine() - base
		if n <= 0 || i == 200 {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// adviseInst is a closed loop of in-process advisories, the path the
// warlock CLI serves: build the document, advise, render the report.
type adviseInst struct {
	rc  *runConfig
	doc *config.Document
	ref [sha256.Size]byte // digest of the Parallelism 1 reference report
}

// apb1Doc is the paper-scale APB-1 document of the CLI workloads.
func apb1Doc(rc *runConfig) *config.Document {
	rows := int64(24_000_000)
	if rc.toy {
		rows = 4_000_000
	}
	return config.FromAPB1(rows+rc.rowOffset(), 64)
}

func setupCLI(rc *runConfig) (instance, error) {
	return newAdviseInst(rc, apb1Doc(rc))
}

func setupSkewed(rc *runConfig) (instance, error) {
	doc := apb1Doc(rc)
	for i := range doc.Schema.Dimensions {
		if d := &doc.Schema.Dimensions[i]; d.Name == "Product" || d.Name == "Customer" {
			d.SkewTheta = 1.0
		}
	}
	doc.Options.MinAvgFragmentPages = 64
	return newAdviseInst(rc, doc)
}

// newAdviseInst computes the reference report serially: every timed op
// must reproduce it byte for byte at the default parallelism.
func newAdviseInst(rc *runConfig, doc *config.Document) (*adviseInst, error) {
	rep, _, err := adviseReport(doc, 1)
	if err != nil {
		return nil, err
	}
	return &adviseInst{rc: rc, doc: doc, ref: sha256.Sum256([]byte(rep))}, nil
}

// adviseReport is one CLI operation: build, advise, render.
func adviseReport(doc *config.Document, parallelism int) (string, *core.Result, error) {
	in, err := doc.Build()
	if err != nil {
		return "", nil, err
	}
	in.Parallelism = parallelism
	res, err := core.AdviseContext(context.Background(), in)
	if err != nil {
		return "", nil, err
	}
	return analysis.Report(res), res, nil
}

func (a *adviseInst) warmup() error {
	_, _, err := adviseReport(a.doc, 0)
	return err
}

func (a *adviseInst) measure(rec *recorder, m map[string]float64) error {
	var skipRatios []float64
	var skipped, survivors int
	start := time.Now()
	for n := 0; !a.rc.deadline(start, n); n++ {
		t := time.Now()
		rep, res, err := adviseReport(a.doc, 0)
		d := time.Since(t)
		switch {
		case err != nil:
			rec.fail(false, err)
		case sha256.Sum256([]byte(rep)) != a.ref:
			rec.fail(true, fmt.Errorf("op %d: report differs from the serial reference", n))
		default:
			rec.ok(d)
			ps := res.PruneStats
			skipped += ps.Skipped
			survivors += ps.Survivors
			skipRatios = append(skipRatios, float64(ps.Skipped)/float64(max(ps.Survivors, 1)))
		}
	}
	rec.wall = time.Since(start)
	m["core.prune_skip_ratio"] = float64(skipped) / float64(max(survivors, 1))
	if len(skipRatios) > 0 {
		m["core.prune_skip_spread"] = slices.Max(skipRatios) - slices.Min(skipRatios)
	}
	return nil
}

func (a *adviseInst) replayDoc() *config.Document { return a.doc }

func (a *adviseInst) finish(bool) error { return nil }
