package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"firestore/firestore"
	"firestore/internal/backend"
	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/query"
)

// The listen mix: one open-loop writer and many real-time listeners.
const (
	listenDocs      = 1000
	listenGroups    = 20 // equality queries; doc i matches group i%20
	listenListeners = 3000
	listenRate      = 100 // writer commits per second
	listenWarmup    = 50  // untimed commits before the timed phase
	listenMaxSecs   = 70  // longest timed phase the tracking arrays hold
	notifyDeadline  = failedLatency
	perGroup        = listenListeners / listenGroups // listeners that see each write
)

var listenWorkload = &workload{
	name:   "listen",
	setups: 3,
	gen:    func(seed int64) any { return genListen(seed) },
	open:   func(in any, tr *tracer) (instance, error) { return openListen(in.(*listenInputs), tr) },
}

type listenInputs struct {
	seed int64
	docs docSet
}

// genListen makes 1,000 documents: index i, group g = i%20, seq 0 and a
// string of ~200 letters.
func genListen(seed int64) *listenInputs {
	rng := rand.New(rand.NewSource(seed))
	return &listenInputs{seed: seed, docs: genDocs(rng, "l", listenDocs, 1, 200, func(i int) map[string]any {
		return map[string]any{"i": int64(i), "g": int64(i % listenGroups), "seq": int64(0)}
	})}
}

// notifyTrack follows each write k (the writer sets seq=k on doc
// k%1000) until every matching listener has seen seq >= k. Times are
// nanoseconds since base.
type notifyTrack struct {
	base    time.Time
	start   []atomic.Int64 // when write k's commit call started; 0 = untracked
	arrived []atomic.Int32 // listeners that saw write k
	onTime  []atomic.Int32 // ... within notifyDeadline
	last    []atomic.Int64 // latest arrival
}

func (t *notifyTrack) arrive(k int64, now int64) {
	if k < 1 || k >= int64(len(t.start)) {
		return
	}
	st := t.start[k].Load()
	if st == 0 {
		return
	}
	t.arrived[k].Add(1)
	if time.Duration(now-st) <= notifyDeadline {
		t.onTime[k].Add(1)
	}
	for {
		old := t.last[k].Load()
		if now <= old || t.last[k].CompareAndSwap(old, now) {
			return
		}
	}
}

type listenInst struct {
	in    *listenInputs
	env   *env
	tr    *tracer
	refs  []*firestore.DocumentRef
	conns []*frontend.Conn
	track *notifyTrack
	k     int64 // last seq written
	// late and lost count notifications of the timed phase that arrived
	// after the deadline, or not at all.
	late, lost int64
	recv       sync.WaitGroup
	synced     sync.WaitGroup // listeners yet to receive their initial snapshot
}

func openListen(in *listenInputs, tr *tracer) (*listenInst, error) {
	e, err := openEnv(regionOpts{}, in.seed, tr)
	if err != nil {
		return nil, err
	}
	s := &listenInst{in: in, env: e, tr: tr}
	n := listenWarmup + listenRate*listenMaxSecs + 1
	s.track = &notifyTrack{
		base:    time.Now(),
		start:   make([]atomic.Int64, n),
		arrived: make([]atomic.Int32, n),
		onTime:  make([]atomic.Int32, n),
		last:    make([]atomic.Int64, n),
	}
	if err := s.load(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *listenInst) load() error {
	ctx := context.Background()
	r := s.env.region
	if _, err := r.CreateDatabase(fgDB); err != nil {
		return err
	}
	client := firestore.NewClient(r, fgDB)
	s.refs = refsOf(client.Collection("ldocs"), s.in.docs.ids)
	if err := bulkLoad(ctx, client, s.refs, s.in.docs.docs, 0); err != nil {
		return err
	}
	for j := 0; j < listenListeners; j++ {
		q := &query.Query{
			Collection: doc.MustCollection("/ldocs"),
			Predicates: []query.Predicate{{Path: "g", Op: query.Eq, Value: doc.Int(int64(j % listenGroups))}},
		}
		conn := r.NewConn(fgDB, backend.Principal{Privileged: true})
		s.conns = append(s.conns, conn)
		s.synced.Add(1)
		s.recv.Add(1)
		go s.receive(conn)
		if _, err := conn.Listen(s.tr.requestCtx(ctx, r, ""), q); err != nil {
			return fmt.Errorf("listener %d: %w", j, err)
		}
	}
	return nil
}

// receive is one listener's client: it only drains the connection and
// stamps when each write's new seq arrives.
func (s *listenInst) receive(conn *frontend.Conn) {
	defer s.recv.Done()
	var seen [listenDocs / listenGroups]int64 // newest seq per matching doc
	initial := true
	for ev := range conn.Events() {
		now := int64(time.Since(s.track.base))
		if ev.Initial && initial {
			initial = false
			s.synced.Done()
		}
		for _, docs := range [][]*doc.Document{ev.Added, ev.Modified} {
			for _, d := range docs {
				slot := d.Fields["i"].IntVal() / listenGroups
				seq := d.Fields["seq"].IntVal()
				for k := seq; k > seen[slot]; k -= listenDocs {
					s.track.arrive(k, now)
				}
				seen[slot] = max(seen[slot], seq)
			}
		}
	}
	if initial {
		s.synced.Done()
	}
}

func (s *listenInst) handles() (*core.Region, *cluster.Coordinator) { return s.env.region, nil }

func (s *listenInst) warmup(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.synced.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("listeners did not receive their initial snapshots")
	}
	ph := &phase{fg: &samples{}}
	s.write(ctx, ph, time.Now(), listenWarmup)
	if ph.checks.failed > 0 {
		return fmt.Errorf("%d warm-up commits failed: %v", ph.checks.failed, ph.checks.first)
	}
	s.waitDelivered(1, s.k)
	return nil
}

// write sends n commits at listenRate, each timed from its due time.
func (s *listenInst) write(ctx context.Context, ph *phase, start time.Time, n int) {
	const every = time.Second / listenRate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * every)
		sleepUntil(due)
		sent := time.Now()
		ph.late.add(sent.Sub(due))
		s.k++
		k := s.k
		var id string
		if s.tr != nil {
			id = reqID(0, int(k))
		}
		data := withFields(s.in.docs.docs[k%listenDocs], "seq", k)
		s.track.start[k].Store(int64(sent.Sub(s.track.base)))
		err := s.refs[k%listenDocs].Update(s.tr.requestCtx(ctx, s.env.region, id), data)
		ack := time.Now()
		if err != nil {
			s.track.start[k].Store(0)
			ph.checks.fail(false, "commit seq=%d: %v", k, err)
			ph.commit.addFailed(ack.Sub(due))
			ph.notify.addFailed(ack.Sub(sent)) // no listener will see it
			continue
		}
		ph.commit.add(ack.Sub(due))
		ph.commits++
		ph.written += docBytes(s.in.docs.ids[k%listenDocs], data)
		ph.ops++
		ph.checks.ok()
		s.tr.done(id, ack.Sub(sent))
	}
}

func (s *listenInst) measure(ctx context.Context, d time.Duration) (*phase, error) {
	if d > listenMaxSecs*time.Second {
		return nil, fmt.Errorf("listen measures at most %ds", listenMaxSecs)
	}
	ph := &phase{}
	ph.fg = &ph.notify
	first := s.k + 1
	start := time.Now()
	s.write(ctx, ph, start, int(d*listenRate/time.Second))
	ph.elapsed = time.Since(start)
	s.waitDelivered(first, s.k)

	// Each write is one check per matching listener: did it see the new
	// seq within the deadline. A write's notification latency is when its
	// last listener saw it; a write some listener missed counts as a
	// failure, at failedLatency or more.
	t := s.track
	for k := first; k <= s.k; k++ {
		st := t.start[k].Load()
		if st == 0 {
			continue // the commit failed; already counted
		}
		onTime := int64(t.onTime[k].Load())
		s.late += int64(t.arrived[k].Load()) - onTime
		s.lost += perGroup - int64(t.arrived[k].Load())
		lat := time.Duration(max(t.last[k].Load()-st, 0))
		if miss := perGroup - onTime; miss > 0 {
			ph.checks.record(onTime, miss, false, "seq=%d: %d of %d listeners did not see it within %v", k, miss, perGroup, notifyDeadline)
			ph.notify.addFailed(lat)
			continue
		}
		ph.checks.record(onTime, 0, false, "")
		ph.notify.add(lat)
	}
	return ph, nil
}

// waitDelivered waits until every listener has seen writes first..last,
// or until the last write's deadline has passed.
func (s *listenInst) waitDelivered(first, last int64) {
	t := s.track
	until := t.base.Add(time.Duration(t.start[last].Load()) + notifyDeadline)
	for k := first; k <= last; k++ {
		for t.start[k].Load() != 0 && t.arrived[k].Load() < perGroup && time.Now().Before(until) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (s *listenInst) finish(ctx context.Context, ph *phase, r *report) error {
	r.add("space_amp", "ratio", spaceAmp(engineTotals(s.env.region), false, s.in.docs.userBytes), 0)
	r.add("notify_late", "count", float64(s.late), 0)
	r.add("notify_lost", "count", float64(s.lost), 0)
	return nil
}

func (s *listenInst) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.recv.Wait()
	s.env.close()
}
