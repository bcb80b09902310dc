package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"firestore/firestore"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/ramp"
	"firestore/internal/ycsb"
)

// The ingest mix: a bulk load by one tenant on durable storage while
// another tenant reads.
const (
	ingestAppDocs   = 20000
	ingestBatchDocs = 60000
	ingestGetRate   = 200 // bystander reads per second
	// ingestInFlight is how many BulkWriter batches commit at once, in
	// the preload and in the load. In the preload, one at a time leaves
	// the app tenant's segments and memtable the same from run to run (a
	// flush waits while another commit is mid-apply, so concurrent
	// batches leave the layout to timing, and one segment more made the
	// bystander's reads about 20% slower for the whole run). In the load,
	// with the admission ramp raised out of the way as the BULK harness
	// does, it makes a closed loop whose rate the program sets and keeps
	// two requests in flight (this batch and the bystander's read), one
	// per core of the 2-core host the figures were taken on.
	ingestInFlight = 1
	ingestGets     = ingestGetRate * 120
	ingestWarmup   = 500 // untimed bystander reads
	batchDB        = "batch"
	// dataRoot holds the ingest workload's engine directories, under the
	// directory the benchmark runs from.
	dataRoot = ".bench_build"
)

var ingestWorkload = &workload{
	name:   "ingest",
	setups: 2,
	gen:    func(seed int64) any { return genIngest(seed) },
	open:   func(in any, tr *tracer) (instance, error) { return openIngest(in.(*ingestInputs), tr) },
}

type ingestInputs struct {
	seed  int64
	app   docSet
	batch docSet
	gets  []int32 // Zipfian keys of the bystander's reads
}

// genIngest makes the app tenant's 20,000 documents (as in serve), the
// batch tenant's 60,000 new documents of 10 indexed fields (index i, cat,
// score and seven strings of ~140 letters: about 1 KiB) and the bystander's
// read keys.
func genIngest(seed int64) *ingestInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &ingestInputs{seed: seed}
	in.app = genDocs(rng, "d", ingestAppDocs, 5, 190, func(i int) map[string]any {
		return map[string]any{"cat": catName(rng.Intn(serveCats)), "score": rng.Int63n(1e9), "v": int64(0)}
	})
	in.batch = genDocs(rng, "b", ingestBatchDocs, 7, 140, func(i int) map[string]any {
		return map[string]any{"i": int64(i), "cat": catName(rng.Intn(serveCats)), "score": rng.Int63n(1e9)}
	})
	zipf := ycsb.NewZipfian(ingestAppDocs)
	in.gets = make([]int32, ingestGets)
	for i := range in.gets {
		in.gets[i] = int32(zipf.Next(rng))
	}
	return in
}

type ingestInst struct {
	in        *ingestInputs
	env       *env
	tr        *tracer
	dir       string
	opts      regionOpts
	appRefs   []*firestore.DocumentRef
	batchRefs []*firestore.DocumentRef
	batch     *firestore.Client
	nextGet   int
	acked     []bool // batch docs acknowledged by the load
}

func openIngest(in *ingestInputs, tr *tracer) (*ingestInst, error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, "ingest-")
	if err != nil {
		return nil, err
	}
	s := &ingestInst{in: in, tr: tr, dir: dir, opts: regionOpts{sched: 8, dir: dir}}
	if s.env, err = openEnv(s.opts, in.seed, tr); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := s.load(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *ingestInst) load() error {
	r := s.env.region
	for _, db := range []string{fgDB, batchDB} {
		if _, err := r.CreateDatabase(db); err != nil {
			return err
		}
	}
	app := firestore.NewClient(r, fgDB)
	s.appRefs = refsOf(app.Collection("docs"), s.in.app.ids)
	s.batch = firestore.NewClient(r, batchDB)
	s.batchRefs = refsOf(s.batch.Collection("bulk"), s.in.batch.ids)
	return bulkLoad(context.Background(), app, s.appRefs, s.in.app.docs, ingestInFlight)
}

func refsOf(coll *firestore.CollectionRef, ids []string) []*firestore.DocumentRef {
	refs := make([]*firestore.DocumentRef, len(ids))
	for i, id := range ids {
		refs[i] = coll.Doc(id)
	}
	return refs
}

func (s *ingestInst) handles() (*core.Region, *cluster.Coordinator) { return s.env.region, nil }

func (s *ingestInst) warmup(ctx context.Context) error {
	ph := &phase{fg: &samples{}}
	for i := 0; i < ingestWarmup; i++ {
		s.get(ctx, ph, time.Now())
	}
	if ph.checks.failed > 0 {
		return fmt.Errorf("%d warm-up reads failed: %v", ph.checks.failed, ph.checks.first)
	}
	return nil
}

// get sends the bystander's next strong read. get_p*_us time it from its
// due time, so a stall that delays later reads shows; the foreground
// latency times it from its send time, so the sleep overshoot of the
// generator's timer (about 1 ms on a busy 2-core host) stays out of it.
func (s *ingestInst) get(ctx context.Context, ph *phase, due time.Time) {
	key := s.in.gets[s.nextGet%len(s.in.gets)]
	var id string
	if s.tr != nil {
		id = reqID(0, s.nextGet)
	}
	s.nextGet++
	sent := time.Now()
	snap, err := s.appRefs[key].Get(s.tr.requestCtx(ctx, s.env.region, id))
	done := time.Now()
	if err != nil {
		ph.checks.fail(false, "get %d: %v", key, err)
		ph.get.addFailed(done.Sub(due))
		ph.fg.addFailed(done.Sub(sent))
		return
	}
	ph.get.add(done.Sub(due))
	ph.fg.add(done.Sub(sent))
	ph.ops++
	s.tr.done(id, done.Sub(sent))
	cat, _ := snap.DataAt("cat")
	if !snap.Exists() || cat != s.in.app.docs[key]["cat"] {
		ph.checks.fail(true, "get %d: exists=%v cat=%v", key, snap.Exists(), cat)
		return
	}
	ph.checks.ok()
}

// measure loads the batch tenant's documents through one BulkWriter until
// all are enqueued or d has passed, while the bystander reads at a fixed
// rate until the load has drained.
func (s *ingestInst) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{fg: &samples{}}
	start := time.Now()
	loaded := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const every = time.Second / ingestGetRate
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * every)
			sleepUntil(due)
			select {
			case <-loaded:
				return
			default:
			}
			ph.late.add(time.Since(due))
			s.get(ctx, ph, due)
		}
	}()

	bw := s.batch.BulkWriterWithOptions(s.tr.requestCtx(ctx, s.env.region, ""), firestore.BulkWriterOptions{MaxInFlight: ingestInFlight, RampRule: ramp.Rule{BaseQPS: 1e6}})
	deadline := start.Add(d)
	var jobs []*firestore.BulkWriterJob
	var err error
	for i := 0; i < ingestBatchDocs && time.Now().Before(deadline); i++ {
		var j *firestore.BulkWriterJob
		if j, err = bw.Set(s.batchRefs[i], s.in.batch.docs[i]); err != nil {
			break
		}
		jobs = append(jobs, j)
	}
	err = errors.Join(err, bw.End())
	ph.bulkElapsed = time.Since(start)
	close(loaded)
	wg.Wait()
	ph.elapsed = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}

	s.acked = make([]bool, len(jobs))
	for i, j := range jobs {
		if _, err := j.Results(); err != nil {
			ph.checks.fail(false, "bulk %s: %v", s.batchRefs[i].ID(), err)
			continue
		}
		s.acked[i] = true
		ph.bulkDocs++
		ph.written += docBytes(s.in.batch.ids[i], s.in.batch.docs[i])
	}
	ph.ops += ph.bulkDocs
	return ph, nil
}

// finish reports storage space, then closes the region, reopens it from
// the same directory and checks that every acknowledged document is there
// with the content written.
func (s *ingestInst) finish(ctx context.Context, ph *phase, r *report) error {
	user := s.in.app.userBytes
	for i, ok := range s.acked {
		if ok {
			user += docBytes(s.in.batch.ids[i], s.in.batch.docs[i])
		}
	}
	r.add("space_amp", "ratio", spaceAmp(engineTotals(s.env.region), true, user), 0)
	r.add("bulk_docs", "count", float64(ph.bulkDocs), 0)

	s.env.close()
	e, err := openEnv(s.opts, s.in.seed, nil)
	if err != nil {
		s.env = &env{}
		return fmt.Errorf("reopen: %w", err)
	}
	s.env = e
	// The catalog is not durable: databases are created again, in the
	// same order, which maps each to the same pool database.
	for _, db := range []string{fgDB, batchDB} {
		if _, err := e.region.CreateDatabase(db); err != nil {
			return err
		}
	}
	found := make([]bool, len(s.acked))
	it := firestore.NewClient(e.region, batchDB).Collection("bulk").Documents(ctx)
	defer it.Stop()
	for {
		snap, err := it.Next()
		if errors.Is(err, firestore.ErrIteratorDone) {
			break
		}
		if err != nil {
			return fmt.Errorf("scan after reopen: %w", err)
		}
		v, _ := snap.DataAt("i")
		i, _ := v.(int64)
		if i < 0 || int(i) >= len(found) {
			continue
		}
		want := s.in.batch.docs[i]
		sc, _ := snap.DataAt("score")
		s7, _ := snap.DataAt("s6")
		found[i] = snap.Ref.ID() == s.in.batch.ids[i] && sc == want["score"] && s7 == want["s6"]
	}
	var missing int64
	for i, ok := range s.acked {
		if ok && !found[i] {
			missing++
		}
	}
	ph.checks.record(ph.bulkDocs-missing, missing, true, "%d acknowledged documents missing or changed after reopen", missing)
	return nil
}

func (s *ingestInst) close() {
	s.env.close()
	os.RemoveAll(s.dir)
}
