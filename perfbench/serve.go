package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"firestore/firestore"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/index"
	"firestore/internal/ramp"
	"firestore/internal/ycsb"
)

// The serve mix: a YCSB-like closed loop through the server SDK.
const (
	serveDocs    = 20000
	serveCats    = 10
	serveClients = 2
	serveOps     = 200000 // pre-generated ops per client; a run wraps around
	serveWarmup  = 2000   // untimed ops per client before the timed phase
	queryLimit   = 20
)

var serveWorkload = &workload{
	name:   "serve",
	setups: 2,
	gen:    func(seed int64) any { return genServe(seed) },
	open: func(in any, tr *tracer) (instance, error) {
		return openServe(in.(*serveInputs), regionOpts{billing: true}, tr)
	},
}

var serveRemoteWorkload = &workload{
	name:   "serve-remote",
	setups: 2,
	gen:    func(seed int64) any { return genServe(seed) },
	open: func(in any, tr *tracer) (instance, error) {
		return openServe(in.(*serveInputs), regionOpts{billing: true, remote: true}, tr)
	},
}

const (
	opGet byte = iota
	opUpdate
	opQuery
)

type serveOp struct {
	kind  byte
	key   int32 // document index (get, update) or category (query)
	score int64 // new score (update)
}

type serveInputs struct {
	seed     int64
	docs     docSet
	catCount [serveCats]int
	ops      [serveClients][]serveOp
}

// genServe makes 20,000 documents of 8 fields (cat, score, v and five
// strings of ~190 letters: about 1 KiB) and each client's op sequence: 75%
// strong Get, 20% Update of score and v, 5% query, over Zipfian keys.
// Client c updates only keys with key%2 == c, so each key has one writer
// and its v rises in commit order.
func genServe(seed int64) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{seed: seed}
	in.docs = genDocs(rng, "d", serveDocs, 5, 190, func(i int) map[string]any {
		cat := rng.Intn(serveCats)
		in.catCount[cat]++
		return map[string]any{"cat": catName(cat), "score": rng.Int63n(1e9), "v": int64(0)}
	})
	zipf := ycsb.NewZipfian(serveDocs)
	for c := range in.ops {
		ops := make([]serveOp, serveOps)
		for i := range ops {
			p := rng.Float64()
			key := zipf.Next(rng)
			switch {
			case p < 0.75:
				ops[i] = serveOp{kind: opGet, key: int32(key)}
			case p < 0.95:
				ops[i] = serveOp{kind: opUpdate, key: int32(key&^1 | c), score: rng.Int63n(1e9)}
			default:
				ops[i] = serveOp{kind: opQuery, key: int32(rng.Intn(serveCats))}
			}
		}
		in.ops[c] = ops
	}
	return in
}

func catName(i int) string { return fmt.Sprintf("c%d", i) }

type serveInst struct {
	in      *serveInputs
	env     *env
	tr      *tracer
	refs    []*firestore.DocumentRef
	queries [serveCats]firestore.Query
	// acked is the largest v acknowledged per key.
	acked []atomic.Int64
	next  [serveClients]int   // next op index per client
	vseq  [serveClients]int64 // last v written per client
}

func openServe(in *serveInputs, o regionOpts, tr *tracer) (*serveInst, error) {
	e, err := openEnv(o, in.seed, tr)
	if err != nil {
		return nil, err
	}
	s := &serveInst{in: in, env: e, tr: tr, acked: make([]atomic.Int64, serveDocs)}
	if err := s.load(); err != nil {
		e.close()
		return nil, err
	}
	return s, nil
}

func (s *serveInst) load() error {
	ctx := context.Background()
	r := s.env.region
	if _, err := r.CreateDatabase(fgDB); err != nil {
		return err
	}
	comp := index.CompositeDef("docs",
		index.Field{Path: "cat", Dir: index.Ascending},
		index.Field{Path: "score", Dir: index.Descending})
	if err := r.AddCompositeIndex(ctx, fgDB, comp); err != nil {
		return err
	}
	client := firestore.NewClient(r, fgDB)
	coll := client.Collection("docs")
	s.refs = refsOf(coll, s.in.docs.ids)
	for c := range s.queries {
		s.queries[c] = coll.Where("cat", "==", catName(c)).OrderBy("score", firestore.Desc).Limit(queryLimit)
	}
	return bulkLoad(ctx, client, s.refs, s.in.docs.docs, 0)
}

// bulkLoad writes docs through one BulkWriter with the admission ramp
// raised and at most inFlight batches committing at once (0 = the
// BulkWriter default), and fails unless every write is acknowledged.
func bulkLoad(ctx context.Context, client *firestore.Client, refs []*firestore.DocumentRef, docs []map[string]any, inFlight int) error {
	bw := client.BulkWriterWithOptions(ctx, firestore.BulkWriterOptions{MaxInFlight: inFlight, RampRule: ramp.Rule{BaseQPS: 1e6}})
	jobs := make([]*firestore.BulkWriterJob, len(docs))
	for i := range docs {
		j, err := bw.Set(refs[i], docs[i])
		if err != nil {
			bw.End()
			return err
		}
		jobs[i] = j
	}
	if err := bw.End(); err != nil {
		return err
	}
	for i, j := range jobs {
		if _, err := j.Results(); err != nil {
			return fmt.Errorf("preload %s: %w", refs[i].Path(), err)
		}
	}
	return nil
}

func (s *serveInst) handles() (*core.Region, *cluster.Coordinator) { return s.env.region, s.env.coord }

func (s *serveInst) warmup(ctx context.Context) error {
	ph := &phase{fg: &samples{}}
	s.loop(ctx, ph, time.Time{}, serveWarmup)
	if ph.checks.failed > 0 {
		return fmt.Errorf("%d of %d warm-up operations failed: %v", ph.checks.failed, ph.checks.attempted, ph.checks.first)
	}
	return nil
}

func (s *serveInst) measure(ctx context.Context, d time.Duration) (*phase, error) {
	ph := &phase{fg: &samples{}}
	start := time.Now()
	s.loop(ctx, ph, start.Add(d), 0)
	ph.elapsed = time.Since(start)
	return ph, nil
}

// loop runs every client until the deadline (or for n ops each when n >
// 0), each sending its next op when the previous one returns.
func (s *serveInst) loop(ctx context.Context, ph *phase, deadline time.Time, n int) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; n == 0 || k < n; k++ {
				if n == 0 && !time.Now().Before(deadline) {
					return
				}
				s.do(ctx, ph, c)
			}
		}()
	}
	wg.Wait()
}

func (s *serveInst) do(ctx context.Context, ph *phase, c int) {
	i := s.next[c]
	s.next[c]++
	o := s.in.ops[c][i%serveOps]
	var id string
	if s.tr != nil {
		id = reqID(c, i)
	}
	rctx := s.tr.requestCtx(ctx, s.env.region, id)
	var lat time.Duration
	switch o.kind {
	case opGet:
		want := s.acked[o.key].Load()
		t0 := time.Now()
		snap, err := s.refs[o.key].Get(rctx)
		lat = time.Since(t0)
		if err != nil {
			ph.checks.fail(false, "get %d: %v", o.key, err)
			ph.get.addFailed(lat)
			ph.fg.addFailed(lat)
			return
		}
		ph.get.add(lat)
		v, _ := snap.DataAt("v")
		if got, _ := v.(int64); !snap.Exists() || got < want {
			ph.checks.fail(true, "get %d: v=%v, acknowledged %d before the read", o.key, v, want)
		} else {
			ph.checks.ok()
		}
	case opUpdate:
		s.vseq[c]++
		v := s.vseq[c]
		data := withFields(s.in.docs.docs[o.key], "score", o.score, "v", v)
		t0 := time.Now()
		err := s.refs[o.key].Update(rctx, data)
		lat = time.Since(t0)
		if err != nil {
			ph.checks.fail(false, "update %d: %v", o.key, err)
			ph.commit.addFailed(lat)
			ph.fg.addFailed(lat)
			return
		}
		s.acked[o.key].Store(v)
		ph.commit.add(lat)
		atomic.AddInt64(&ph.commits, 1)
		atomic.AddInt64(&ph.written, docBytes(s.in.docs.ids[o.key], data))
		ph.checks.ok()
	case opQuery:
		t0 := time.Now()
		docs, err := s.queries[o.key].Documents(rctx).GetAll()
		lat = time.Since(t0)
		if err != nil {
			ph.checks.fail(false, "query c%d: %v", o.key, err)
			ph.query.addFailed(lat)
			ph.fg.addFailed(lat)
			return
		}
		ph.query.add(lat)
		atomic.AddInt64(&ph.queryResults, int64(len(docs)))
		if msg := checkQuery(docs, catName(int(o.key)), min(queryLimit, s.in.catCount[o.key])); msg != "" {
			ph.checks.fail(true, "query c%d: %s", o.key, msg)
		} else {
			ph.checks.ok()
		}
	}
	ph.fg.add(lat)
	atomic.AddInt64(&ph.ops, 1)
	s.tr.done(id, lat)
}

// checkQuery verifies a result against the predicate, the order (score
// descending) and the length the generator predicts.
func checkQuery(docs []*firestore.DocumentSnapshot, cat string, want int) string {
	if len(docs) != want {
		return fmt.Sprintf("%d results, want %d", len(docs), want)
	}
	prev := int64(1 << 62)
	for _, d := range docs {
		c, _ := d.DataAt("cat")
		sc, _ := d.DataAt("score")
		score, _ := sc.(int64)
		if c != cat {
			return fmt.Sprintf("%s has cat %v", d.Ref.ID(), c)
		}
		if score > prev {
			return fmt.Sprintf("%s out of order: score %d after %d", d.Ref.ID(), score, prev)
		}
		prev = score
	}
	return ""
}

func (s *serveInst) finish(ctx context.Context, ph *phase, r *report) error {
	r.add("space_amp", "ratio", spaceAmp(engineTotals(s.env.region), false, s.in.docs.userBytes), 0)
	return nil
}

func (s *serveInst) close() { s.env.close() }
