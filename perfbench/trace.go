package main

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/keyviz"
	"firestore/internal/metric"
	"firestore/internal/obs"
	"firestore/internal/reqctx"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// perLayerNames are the metrics of a traced run, printed in its JSON
// summary. A layer the workload does not reach reports 0. The layers
// only listen reaches (rtcache fan-out, frontend delivery) are printed in
// the table alone: listen is not one of the workloads BENCHMARK.json
// bounds (see README.md).
var perLayerNames = []string{
	"proc.cpu_us_per_op", "go.alloc_bytes_per_op", "go.gc_pause_total_ms",
	"host.sleep_overshoot_us", "gen.late_p99_us", "sdk.unattributed_p50_us",
	"wfq.submit.self_p50_us", "wfq.queue_wait_p50_us", "wfq.queue_wait_p99_us", "wfq.dispatched",
	"backend.get.self_p50_us", "backend.query.self_p50_us",
	"backend.commit.self_p50_us", "backend.commit.self_p99_us",
	"backend.bulkcommit.self_p50_us", "backend.bulkgroup.self_p50_us",
	"query.entries_per_result",
	"rtcache.prepare_p50_us", "rtcache.out_of_sync",
	"spanner.txn.commit.self_p50_us", "spanner.commit_wait_p50_us", "spanner.lock_wait_p99_us",
	"spanner.participants_per_commit", "spanner.abort_ratio", "spanner.splits", "spanner.merges",
	"storage.get_p50_us", "storage.scan_rows_per_query", "storage.batchget_per_commit",
	"storage.apply_p50_us", "storage.apply_p99_us", "storage.apply_busy_frac",
	"storage.wal_bytes_per_user_byte", "storage.fsyncs_per_apply",
	"storage.flushes", "storage.compactions", "storage.segments_end",
	"transport.rpcs_per_op", "transport.rpc_p50_us", "transport.rpc_p99_us", "transport.errors", "transport.reconnects",
	"trace_overhead",
}

// tracer is the traced run's instrumentation, all of it outside the
// program: a reqctx tracer sampling every request, installed on the
// region's recorder, and a timing wrapper around the storage factory.
type tracer struct {
	tz    *reqctx.Tracer
	store *storeStats
	// storeObs and storeKV receive the counters and the flush and
	// compaction events of durable engines the traced run opens through
	// core.Config.StorageFactory. The region's own registry and heatmap
	// collector do not exist yet when the factory is built; these stand
	// in for them so the engines run the same code as untraced.
	storeObs *obs.Registry
	storeKV  *keyviz.Collector

	mu    sync.Mutex
	spans map[string]*samples // self time by span name
	roots map[string]time.Duration
	e2e   map[string]time.Duration
	// setupSpans keeps the spans recorded before the timed phase
	// (listener registration happens in set-up).
	setupSpans map[string]*samples

	// Counters and process figures at the start and end of the phase.
	before, after snapshot
	region        *core.Region
}

func newTracer() *tracer {
	t := &tracer{
		store:    &storeStats{},
		storeObs: obs.NewRegistry(),
		storeKV:  keyviz.New(truetime.NewSystem(50*time.Microsecond), keyviz.Options{}),
		spans:    map[string]*samples{},
		roots:    map[string]time.Duration{},
		e2e:      map[string]time.Duration{},
	}
	t.storeKV.Enable()
	t.tz = reqctx.NewTracer(reqctx.TracerConfig{SampleProb: 1, OnKeep: t.onTrace, Seed: 1})
	return t
}

// requestCtx returns the context for one SDK call. Untraced runs (t ==
// nil) use ctx unchanged, as an application would.
func (t *tracer) requestCtx(ctx context.Context, r *core.Region, id string) context.Context {
	if t == nil {
		return ctx
	}
	ctx = reqctx.WithRecorder(ctx, r.Recorder)
	return reqctx.With(ctx, reqctx.Meta{RequestID: id})
}

// done records the end-to-end latency of the request with id.
func (t *tracer) done(id string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.e2e[id] = d
	t.mu.Unlock()
}

func reqID(client, i int) string { return strconv.Itoa(client) + "-" + strconv.Itoa(i) }

// onTrace receives every finished trace and files each span's self
// time: its duration minus the part of it its children cover.
func (t *tracer) onTrace(td reqctx.TraceData) {
	kids := map[uint64][]reqctx.SpanData{}
	for _, s := range td.Spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range td.Spans {
		if s.ParentID == 0 {
			t.roots[td.ID] = s.Duration
		}
		sm := t.spans[s.Name]
		if sm == nil {
			sm = &samples{}
			t.spans[s.Name] = sm
		}
		sm.add(s.Duration - covered(s, kids[s.ID]))
	}
}

// covered is how much of s's interval the union of its children spans.
func covered(s reqctx.SpanData, kids []reqctx.SpanData) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	lo, hi := s.StartOff, s.StartOff+s.Duration
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartOff, lo), min(k.StartOff+k.Duration, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// snapshot is the state of every counter the per-layer metrics diff.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcPause  uint64
	counters map[string]int64 // region.Obs and storeObs counters, summed over labels
	spanner  struct{ commits, aborts, splits, merges int64 }
	rpcs     int64
	rpcErrs  int64
	reconn   int64
}

// begin starts the timed phase: spans and histograms recorded during
// set-up are set aside, and counters are snapshotted.
func (t *tracer) begin(r *core.Region, coord *cluster.Coordinator) {
	t.region = r
	t.mu.Lock()
	t.setupSpans = t.spans
	t.spans = map[string]*samples{}
	t.roots = map[string]time.Duration{}
	t.e2e = map[string]time.Duration{}
	t.mu.Unlock()
	for _, h := range r.Obs.Snapshot().Histograms {
		r.Obs.Histogram(h.Name, h.Labels).Reset()
	}
	t.store.reset()
	t.before = t.take(r, coord)
}

// end snapshots the counters after the timed phase, before any check
// stops the region.
func (t *tracer) end(r *core.Region, coord *cluster.Coordinator) { t.after = t.take(r, coord) }

func (t *tracer) take(r *core.Region, coord *cluster.Coordinator) snapshot {
	var s snapshot
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.at = time.Now()
	s.alloc, s.gcPause = ms.TotalAlloc, ms.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.counters = map[string]int64{}
	for _, reg := range []*obs.Registry{r.Obs, t.storeObs} {
		for _, c := range reg.Snapshot().Counters {
			s.counters[c.Name] += c.Value
		}
	}
	for _, db := range r.Spanners {
		st := db.Stats()
		s.spanner.commits += st.Commits
		s.spanner.aborts += st.Aborts
		s.spanner.splits += st.Splits
		s.spanner.merges += st.Merges
	}
	if coord != nil {
		for _, h := range coord.Pool().Health() {
			s.rpcs += h.Calls
			s.rpcErrs += h.Errors
			s.reconn += h.Reconnects
		}
	}
	return s
}

func (t *tracer) delta(name string) int64 { return t.after.counters[name] - t.before.counters[name] }

func (t *tracer) spanPct(name string, q float64) (float64, int) {
	t.mu.Lock()
	s := t.spans[name]
	t.mu.Unlock()
	if s == nil {
		return 0, 0
	}
	return s.pct(q), s.count()
}

// histSum totals a program histogram that records counts as durations
// (query.plan_actual_entries) over its label sets.
func histSum(r *core.Region, name string) int64 {
	var sum int64
	for _, h := range r.Obs.Snapshot().Histograms {
		if h.Name == name {
			sum += h.Mean * int64(h.Count)
		}
	}
	return sum
}

// histPct reads the p50 and p99 (µs) of a program histogram. Label sets
// matching labels cannot be merged exactly from a snapshot (the buckets
// are not exported), so the busiest instance stands for them.
func histPct(r *core.Region, name string, labels obs.Labels) (p50, p99 float64, n int) {
	var best obs.HistogramValue
	for _, h := range r.Obs.Snapshot().Histograms {
		if h.Name == name && labelsMatch(h.Labels, labels) && h.Count > best.Count {
			best = h
		}
	}
	return us(time.Duration(best.P50)), us(time.Duration(best.P99)), int(best.Count)
}

func labelsMatch(have, want obs.Labels) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// runTraced measures per-layer metrics: one untraced run for the
// reference throughput, then a traced run on the same inputs.
func runTraced(w *workload, seed int64, d time.Duration) (*report, error) {
	ctx := context.Background()
	overshoot := sleepOvershoot()
	in := w.gen(seed)

	inst, _, err := build(ctx, w, in, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ref, err := inst.measure(ctx, d)
	inst.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	inst, _, err = build(ctx, w, in, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	region, coord := inst.handles()
	tr.begin(region, coord) // collects garbage first, as the reference run does
	ph, err := inst.measure(ctx, d)
	if err != nil {
		return nil, err
	}
	tr.end(region, coord)
	engines := engineTotals(region)
	r := &report{}
	if err := inst.finish(ctx, ph, r); err != nil {
		return nil, err
	}
	if err := endToEndMetrics(r, ph); err != nil {
		return nil, err
	}
	tr.layerMetrics(r, ph, ref, engines, overshoot)
	return r, nil
}

// engineTotals sums the storage engines' own stats over every tablet.
func engineTotals(r *core.Region) storage.Stats {
	var s storage.Stats
	for _, db := range r.Spanners {
		for _, ti := range db.TabletStats() {
			s.Segments += ti.Storage.Segments
			s.SegmentBytes += ti.Storage.SegmentBytes
			s.WALBytes += ti.Storage.WALBytes
			s.MemtableBytes += ti.Storage.MemtableBytes
		}
	}
	return s
}

// spaceAmp is the bytes the engines hold over the live user bytes: the
// memtable for in-memory engines, WAL plus segments for durable ones.
func spaceAmp(s storage.Stats, durable bool, userBytes int64) float64 {
	held := s.MemtableBytes
	if durable {
		held = s.WALBytes + s.SegmentBytes
	}
	return float64(held) / float64(userBytes)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (t *tracer) layerMetrics(r *report, ph, ref *phase, engines storage.Stats, overshoot float64) {
	b, a := t.before, t.after
	ops := max(ph.ops, 1)
	r.add("proc.cpu_us_per_op", "us", us(a.cpu-b.cpu)/float64(ops), 0)
	r.add("go.alloc_bytes_per_op", "B", float64(a.alloc-b.alloc)/float64(ops), 0)
	r.add("go.gc_pause_total_ms", "ms", float64(a.gcPause-b.gcPause)/1e6, 0)
	r.add("host.sleep_overshoot_us", "us", overshoot, 0)
	if _, ok := r.get("gen.late_p99_us"); !ok {
		r.add("gen.late_p99_us", "us", 0, 0)
	}

	// Unattributed: end-to-end latency minus the program's root span.
	var unattr samples
	t.mu.Lock()
	for id, e := range t.e2e {
		if root, ok := t.roots[id]; ok {
			unattr.d = append(unattr.d, e-root)
		}
	}
	t.mu.Unlock()
	r.add("sdk.unattributed_p50_us", "us", unattr.pct(0.5), unattr.count())

	self := func(metricName, span string, q float64) {
		v, n := t.spanPct(span, q)
		r.add(metricName, "us", v, n)
	}
	self("wfq.submit.self_p50_us", "wfq.submit", 0.5)
	// Queue wait of the latency-class tenant, not of the batch key.
	qw50, qw99, n := histPct(t.region, "wfq.queue_wait", obs.DB(fgDB))
	r.add("wfq.queue_wait_p50_us", "us", qw50, n)
	r.add("wfq.queue_wait_p99_us", "us", qw99, n)
	r.add("wfq.dispatched", "count", float64(t.delta("wfq.dispatched")), 0)
	self("backend.get.self_p50_us", "backend.get", 0.5)
	self("backend.query.self_p50_us", "backend.query", 0.5)
	self("backend.commit.self_p50_us", "backend.commit", 0.5)
	self("backend.commit.self_p99_us", "backend.commit", 0.99)
	self("backend.bulkcommit.self_p50_us", "backend.bulkcommit", 0.5)
	self("backend.bulkgroup.self_p50_us", "backend.bulkgroup", 0.5)

	entries := histSum(t.region, "query.plan_actual_entries")
	r.add("query.entries_per_result", "ratio", ratio(entries, ph.queryResults), 0)

	self("rtcache.prepare_p50_us", "rtcache.prepare", 0.5)
	commits := a.spanner.commits - b.spanner.commits
	r.add("rtcache.fanout_per_commit", "ratio", ratio(t.delta("rtcache.fanout"), ph.commits), 0)
	r.add("rtcache.out_of_sync", "count", float64(t.delta("rtcache.out_of_sync")), 0)
	r.add("frontend.events_delivered_per_commit", "ratio", ratio(t.delta("frontend.events_delivered"), ph.commits), 0)
	r.add("frontend.events_dropped", "count", float64(t.delta("frontend.events_dropped")), 0)
	r.add("frontend.requeries", "count", float64(t.delta("frontend.requeries")), 0)
	var listen50 float64
	var listenN int
	if s := t.setupSpans["frontend.listen"]; s != nil {
		listen50, listenN = s.pct(0.5), s.count()
	}
	r.add("frontend.listen_p50_us", "us", listen50, listenN)

	self("spanner.txn.commit.self_p50_us", "spanner.txn.commit", 0.5)
	cw, _, n := histPct(t.region, "spanner.commit_wait", nil)
	r.add("spanner.commit_wait_p50_us", "us", cw, n)
	_, lw, n := histPct(t.region, "spanner.lock_wait", nil)
	r.add("spanner.lock_wait_p99_us", "us", lw, n)
	r.add("spanner.participants_per_commit", "ratio", ratio(t.delta("spanner.2pc_participants"), commits), 0)
	aborts := a.spanner.aborts - b.spanner.aborts
	r.add("spanner.abort_ratio", "ratio", ratio(aborts, commits+aborts), 0)
	r.add("spanner.splits", "count", float64(a.spanner.splits-b.spanner.splits), 0)
	r.add("spanner.merges", "count", float64(a.spanner.merges-b.spanner.merges), 0)

	st := t.store
	r.add("storage.get_p50_us", "us", us(st.get.Percentile(0.5)), int(st.get.Count()))
	r.add("storage.scan_rows_per_query", "ratio", ratio(st.scanRows.Load(), int64(ph.query.count())), 0)
	r.add("storage.batchget_per_commit", "ratio", ratio(st.batchGets.Load(), commits), 0)
	r.add("storage.apply_p50_us", "us", us(st.apply.Percentile(0.5)), int(st.apply.Count()))
	r.add("storage.apply_p99_us", "us", us(st.apply.Percentile(0.99)), int(st.apply.Count()))
	r.add("storage.apply_busy_frac", "ratio", st.busyTime().Seconds()/a.at.Sub(b.at).Seconds(), 0)
	r.add("storage.wal_bytes_per_user_byte", "ratio", ratio(t.delta("storage.wal.appended.bytes"), ph.written), 0)
	r.add("storage.fsyncs_per_apply", "ratio", ratio(t.delta("storage.wal.fsyncs"), int64(st.apply.Count())), 0)
	r.add("storage.flushes", "count", float64(t.delta("storage.flushes")), 0)
	r.add("storage.compactions", "count", float64(t.delta("storage.compactions")), 0)
	r.add("storage.segments_end", "count", float64(engines.Segments), 0)

	r.add("transport.rpcs_per_op", "ratio", ratio(a.rpcs-b.rpcs, ops), 0)
	rpc50, rpc99, n := histPct(t.region, "transport.rpc_latency", nil)
	r.add("transport.rpc_p50_us", "us", rpc50, n)
	r.add("transport.rpc_p99_us", "us", rpc99, n)
	r.add("transport.errors", "count", float64(a.rpcErrs-b.rpcErrs), 0)
	r.add("transport.reconnects", "count", float64(a.reconn-b.reconn), 0)

	refRate := float64(ref.ops) / ref.elapsed.Seconds()
	rate := float64(ph.ops) / ph.elapsed.Seconds()
	r.add("trace_overhead", "ratio", rate/refRate, 0)
}

// storeStats is what the storage timing wrapper measured.
type storeStats struct {
	get, apply metric.Histogram
	scanRows   atomic.Int64
	batchGets  atomic.Int64

	mu        sync.Mutex
	inflight  int
	busySince time.Time
	busy      time.Duration
}

func (s *storeStats) reset() {
	s.get.Reset()
	s.apply.Reset()
	s.scanRows.Store(0)
	s.batchGets.Store(0)
	s.mu.Lock()
	s.busy = 0
	if s.inflight > 0 {
		s.busySince = time.Now()
	}
	s.mu.Unlock()
}

func (s *storeStats) busyTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// applyStart and applyEnd track the time at least one Apply is running.
func (s *storeStats) applyStart() {
	s.mu.Lock()
	if s.inflight == 0 {
		s.busySince = time.Now()
	}
	s.inflight++
	s.mu.Unlock()
}

func (s *storeStats) applyEnd() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.busy += time.Since(s.busySince)
	}
	s.mu.Unlock()
}

// wrap returns f with every engine it opens wrapped in the timing layer.
func (s *storeStats) wrap(f storage.Factory) storage.Factory { return &timedFactory{Factory: f, st: s} }

type timedFactory struct {
	storage.Factory
	st *storeStats
}

func (f *timedFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	e, err := f.Factory.Open(id, start, end)
	if err != nil {
		return nil, err
	}
	te := &timedEngine{Engine: e, st: f.st}
	// Forward the optional batched read only where the engine has it:
	// spanner type-asserts it, and a wrapper that hid it (or faked it)
	// would make the traced run execute different reads.
	if bg, ok := e.(storage.BatchGetter); ok {
		return &timedBatchEngine{timedEngine: te, bg: bg}, nil
	}
	return te, nil
}

// timedEngine times Get and Apply and counts scanned rows; every other
// method is the wrapped engine's.
type timedEngine struct {
	storage.Engine
	st *storeStats
}

func (e *timedEngine) Get(key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	t0 := time.Now()
	v, vts, ok := e.Engine.Get(key, ts)
	e.st.get.Record(time.Since(t0))
	return v, vts, ok
}

func (e *timedEngine) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(storage.Row) bool) bool {
	var n int64
	done := e.Engine.Scan(lo, hi, ts, reverse, func(r storage.Row) bool {
		n++
		return fn(r)
	})
	e.st.scanRows.Add(n)
	return done
}

func (e *timedEngine) Apply(ctx context.Context, writes []storage.Write, ts truetime.Timestamp) error {
	e.st.applyStart()
	t0 := time.Now()
	err := e.Engine.Apply(ctx, writes, ts)
	e.st.apply.Record(time.Since(t0))
	e.st.applyEnd()
	return err
}

type timedBatchEngine struct {
	*timedEngine
	bg storage.BatchGetter
}

func (e *timedBatchEngine) GetBatch(keys [][]byte, ts truetime.Timestamp) []storage.BatchGet {
	e.st.batchGets.Add(1)
	return e.bg.GetBatch(keys, ts)
}

var _ storage.BatchGetter = (*timedBatchEngine)(nil)
