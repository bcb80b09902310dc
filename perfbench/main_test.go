package main

import (
	"context"
	"testing"

	"firestore/firestore"
)

// TestTracedRunExecutesSameProgram runs one client's serve ops untraced
// and traced on the same seed and requires identical Spanner read and
// commit counts, on the Mem engine, the durable engine and remote
// storage. Over remote storage it also requires identical RPC counts,
// which fail if the storage timing wrapper hides the engine's optional
// batched read (spanner would fall back to one RPC per key for a
// multi-document commit).
func TestTracedRunExecutesSameProgram(t *testing.T) {
	const ops = 2000
	in := genServe(7)
	type counts struct{ reads, commits, rpcs int64 }
	run := func(t *testing.T, o regionOpts, tr *tracer) counts {
		s, err := openServe(in, o, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		// The preload's batching depends on timing, so only the ops count.
		total := func() counts {
			var c counts
			for _, db := range s.env.region.Spanners {
				st := db.Stats()
				c.reads += st.Reads
				c.commits += st.Commits
			}
			if s.env.coord != nil {
				for _, h := range s.env.coord.Pool().Health() {
					c.rpcs += h.Calls
				}
			}
			return c
		}
		before := total()
		ph := &phase{fg: &samples{}}
		for i := 0; i < ops; i++ {
			s.do(context.Background(), ph, 0)
		}
		if ph.checks.failed > 0 {
			t.Fatalf("%d checks failed: %v", ph.checks.failed, ph.checks.first)
		}
		// Multi-document commits prefetch their rows with one batched
		// read per tablet.
		for b := 0; b < 10; b++ {
			batch := firestore.NewClient(s.env.region, fgDB).Batch()
			for i := b * 50; i < (b+1)*50; i++ {
				batch.Set(s.refs[i], s.in.docs.docs[i])
			}
			if err := batch.Commit(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		after := total()
		return counts{after.reads - before.reads, after.commits - before.commits, after.rpcs - before.rpcs}
	}
	for _, tc := range []struct {
		name string
		opts regionOpts
		disk bool // each run gets its own data directory
	}{
		{"mem", regionOpts{billing: true}, false},
		{"disk", regionOpts{billing: true}, true},
		{"remote", regionOpts{billing: true, remote: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func() regionOpts {
				o := tc.opts
				if tc.disk {
					o.dir = t.TempDir()
				}
				return o
			}
			plain := run(t, opts(), nil)
			traced := run(t, opts(), newTracer())
			if plain != traced {
				t.Fatalf("untraced %+v, traced %+v", plain, traced)
			}
			if plain.reads == 0 || plain.commits == 0 {
				t.Fatalf("no reads or commits counted: %+v", plain)
			}
		})
	}
}
