// Command perfbench is the repository's end-to-end benchmark. It builds a
// region with modeled time off (TimeScale 0, no Costs: every microsecond
// it reports is Go code, a real wait or real I/O), drives one workload
// through the public firestore SDK, checks every output, and prints the
// metrics by name with units and sample counts. The last line of standard
// output is a JSON summary.
//
//	perfbench --workload serve --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the workload twice on the same inputs, once
// untraced and once with every request traced and the storage engines
// wrapped in a timing layer, and prints per-layer metrics instead of
// end-to-end ones. See README.md for the metrics and how to read them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"firestore/internal/cluster"
	"firestore/internal/core"
)

// endToEnd are the metrics every workload measures, printed in the JSON
// summary of an untraced run. The workload-specific ones (get_p50_us,
// notify_p99_us, bulk_docs_per_s, ...) and latency_p99_us are printed in
// the table above it: on a shared 2-core host the p99s spread by up to a
// third of their median from run to run, too much to bound.
var endToEnd = []string{"ops_per_s", "latency_p50_us", "space_amp", "setup_s", "heap_mb"}

// workload is one traffic mix. open builds a region, preloads it and
// registers listeners; it is timed as set-up.
type workload struct {
	name string
	// setups is how many times an untraced run builds the workload to
	// report a median set-up time.
	setups int
	gen    func(seed int64) any
	open   func(in any, tr *tracer) (instance, error)
}

// instance is one built workload.
type instance interface {
	// warmup runs untimed load so caches fill and lazy set-up finishes;
	// it counts in set-up time.
	warmup(ctx context.Context) error
	// measure runs the timed load for d.
	measure(ctx context.Context, d time.Duration) (*phase, error)
	// finish runs the checks that need the load stopped and fills the
	// workload's own metrics. It may close the region.
	finish(ctx context.Context, ph *phase, r *report) error
	// handles returns the region under load and, for remote storage, the
	// cluster coordinator.
	handles() (*core.Region, *cluster.Coordinator)
	close()
}

// phase is what one timed run measured.
type phase struct {
	elapsed time.Duration
	ops     int64 // completed SDK operations
	commits int64 // acknowledged single-document writes

	get, commit, query, notify samples
	// late is how far behind its schedule an open-loop generator sent.
	late samples
	// fg is the workload's foreground latency: every SDK call of a closed
	// loop, the notification latency of listen, the bystander Get of
	// ingest from its send time. Failures count in it as failedLatency.
	fg *samples

	queryResults int64
	written      int64 // user bytes of the documents written
	bulkDocs     int64
	bulkElapsed  time.Duration

	checks tally
}

var workloads = []*workload{serveWorkload, serveRemoteWorkload, listenWorkload, ingestWorkload}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: serve, serve-remote, listen or ingest")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	var names []string
	for _, c := range workloads {
		names = append(names, c.name)
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))

	var r *report
	var keep []string
	var err error
	if *traceFlag == 1 {
		r, err = runTraced(w, *seed, d)
		keep = perLayerNames
	} else {
		r, err = runUntraced(w, *seed, d)
		keep = endToEnd
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := printReport(os.Stdout, w.name, r, keep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// build opens and warms one instance, returning it with its set-up time.
func build(ctx context.Context, w *workload, in any, tr *tracer) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.open(in, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := inst.warmup(ctx); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return inst, time.Since(start), nil
}

// runUntraced measures the end-to-end metrics. Set-up runs w.setups
// times (the last instance is measured) and setup_s is the median.
func runUntraced(w *workload, seed int64, d time.Duration) (*report, error) {
	ctx := context.Background()
	overshoot := sleepOvershoot()
	in := w.gen(seed)
	var setups []float64
	var inst instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		var took time.Duration
		var err error
		inst, took, err = build(ctx, w, in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer inst.close()
	// Start the timed phase with the set-ups' garbage collected, so a
	// collection of it does not land in the measurement.
	runtime.GC()
	ph, err := inst.measure(ctx, d)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	r := &report{}
	if err := inst.finish(ctx, ph, r); err != nil {
		return nil, err
	}
	if err := endToEndMetrics(r, ph); err != nil {
		return nil, err
	}
	r.add("setup_s", "s", medianOf(setups), len(setups))
	r.add("heap_mb", "MB", heap, 0)
	r.add("host.sleep_overshoot_us", "us", overshoot, 0)
	return r, nil
}

// endToEndMetrics adds the metrics derived from the timed phase and the
// check tally. A phase with no foreground latency sample has nothing to
// report and fails the run.
func endToEndMetrics(r *report, ph *phase) error {
	if ph.fg.count() == 0 {
		return fmt.Errorf("no foreground operation was attempted (%d checks, first failures: %v)", ph.checks.attempted, ph.checks.first)
	}
	r.add("ops_per_s", "1/s", float64(ph.ops)/ph.elapsed.Seconds(), 0)
	r.lat("latency", ph.fg)
	for _, l := range []struct {
		name string
		s    *samples
	}{{"get", &ph.get}, {"commit", &ph.commit}, {"query", &ph.query}, {"notify", &ph.notify}} {
		if l.s.count() > 0 {
			r.lat(l.name, l.s)
		}
	}
	if ph.bulkDocs > 0 {
		r.add("bulk_docs_per_s", "1/s", float64(ph.bulkDocs)/ph.bulkElapsed.Seconds(), int(ph.bulkDocs))
	}
	if ph.late.count() > 0 {
		r.add("gen.late_p99_us", "us", ph.late.pct(0.99), ph.late.count())
	}
	r.attempted, r.failed = ph.checks.attempted, ph.checks.failed
	r.correct = ph.checks.wrong == 0
	r.add("error_ratio", "ratio", ratio(r.failed, r.attempted), int(r.attempted))
	for _, f := range ph.checks.first {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	return nil
}

// heapMB is the Go heap in use after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sleepOvershoot is the median amount by which a 50µs sleep oversleeps
// on this host: the floor under anything in the program that sleeps,
// such as TrueTime commit wait.
func sleepOvershoot() float64 {
	const want = 50 * time.Microsecond
	xs := make([]float64, 200)
	for i := range xs {
		t0 := time.Now()
		time.Sleep(want)
		xs[i] = us(time.Since(t0) - want)
	}
	return medianOf(xs)
}

// sleepUntil waits for the due time of an open-loop request.
func sleepUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
}
