package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/storage"
)

// fgDB is the database the foreground (latency-sensitive) clients use.
const fgDB = "app"

// regionOpts selects a region's storage and scheduler. Everything else is
// the core.Config default, which has modeled time off.
type regionOpts struct {
	billing bool
	// sched sizes the wfq scheduler; 0 runs without one, the default.
	sched int
	// dir roots durable (Disk) engines; empty keeps the Mem engine.
	dir string
	// remote puts the Spanner pool's storage on two in-process tablet
	// servers reached over TCP loopback.
	remote bool
}

// env is one built region and what it needs torn down.
type env struct {
	region  *core.Region
	coord   *cluster.Coordinator
	servers []*cluster.TabletServer
}

func openEnv(o regionOpts, seed int64, tr *tracer) (*env, error) {
	e := &env{}
	cfg := core.Config{Name: "perfbench", Billing: o.billing, SchedulerWorkers: o.sched, Seed: seed}
	var inner func(i int) (storage.Factory, error)
	switch {
	case o.remote:
		if err := e.startCluster(2); err != nil {
			e.close()
			return nil, err
		}
		inner = func(i int) (storage.Factory, error) { return e.coord.Factory(i), nil }
	case o.dir != "" && tr != nil:
		// The same layout and options core uses for StorageDir (default
		// memtable and compaction, counters and an armed heatmap), so the
		// engines run the same code and either mode reopens the other's
		// directory.
		inner = func(i int) (storage.Factory, error) {
			return storage.NewDiskFactory(filepath.Join(o.dir, fmt.Sprintf("spanner-%d", i)), storage.Options{Obs: tr.storeObs, KeyViz: tr.storeKV})
		}
	case o.dir != "":
		cfg.StorageDir = o.dir
	case tr != nil:
		inner = func(int) (storage.Factory, error) { return storage.MemFactory{}, nil }
	}
	if inner != nil && tr != nil {
		cfg.StorageFactory = func(i int) (storage.Factory, error) {
			f, err := inner(i)
			if err != nil {
				return nil, err
			}
			return tr.store.wrap(f), nil
		}
	} else {
		cfg.StorageFactory = inner
	}
	r, err := core.OpenRegion(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.region = r
	if e.coord != nil {
		e.coord.SetObs(r.Obs)
	}
	if tr != nil {
		r.Recorder.SetTracer(tr.tz)
	}
	return e, nil
}

func (e *env) startCluster(peers int) error {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	if err != nil {
		return err
	}
	e.coord = coord
	for i := 0; i < peers; i++ {
		ts, err := cluster.NewTabletServer(cluster.TabletServerConfig{
			Name: fmt.Sprintf("ts%d", i),
			Join: coord.Addr(),
			Kind: cluster.KindMem,
		})
		if err != nil {
			return fmt.Errorf("tablet server %d: %w", i, err)
		}
		e.servers = append(e.servers, ts)
	}
	return coord.WaitForPeers(peers, 10*time.Second)
}

func (e *env) close() {
	if e.region != nil {
		e.region.Close()
	}
	for _, ts := range e.servers {
		ts.Close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
}

// docSet is a preloaded collection: documents generated from the seed and
// the user bytes they hold.
type docSet struct {
	ids       []string
	docs      []map[string]any
	userBytes int64
}

// genDocs makes n documents: nStr random strings of strLen letters on
// average (strLen/2 to 3*strLen/2) plus the given extra fields.
func genDocs(rng *rand.Rand, prefix string, n, nStr, strLen int, extra func(i int) map[string]any) docSet {
	ds := docSet{ids: make([]string, n), docs: make([]map[string]any, n)}
	for i := 0; i < n; i++ {
		ds.ids[i] = fmt.Sprintf("%s%06d", prefix, i)
		m := extra(i)
		for j := 0; j < nStr; j++ {
			b := make([]byte, strLen/2+rng.Intn(strLen+1))
			for k := range b {
				b[k] = byte('a' + rng.Intn(26))
			}
			m[fmt.Sprintf("s%d", j)] = string(b)
		}
		ds.docs[i] = m
		ds.userBytes += docBytes(ds.ids[i], m)
	}
	return ds
}

// docBytes is the user-visible size of a document: its ID, field names
// and values (8 bytes per number).
func docBytes(id string, m map[string]any) int64 {
	n := int64(len(id))
	for k, v := range m {
		n += int64(len(k))
		if s, ok := v.(string); ok {
			n += int64(len(s))
		} else {
			n += 8
		}
	}
	return n
}

// withFields returns a copy of m with the given fields replaced.
func withFields(m map[string]any, kv ...any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i].(string)] = kv[i+1]
	}
	return out
}
