package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rx"
	"rx/internal/pagestore"
	"rx/internal/rxerr"
	"rx/internal/session"
)

// The ingest workload: one writer in a closed loop. A cycle starts from an
// empty database holding one collection with a string and a double value
// index, interleaves rounds of autocommit Insert with InsertBatch bulk loads
// until the store has outgrown the buffer pool, and ends with a
// crash-equivalent reopen: the handle is abandoned unclosed and the same
// files are reopened, so only what the process wrote survives. Cycles repeat
// until the measured time is up; every cycle attempts the same operations.
const (
	ingestPool    = 128 // buffer pool pages (1 MiB)
	ingestInserts = 8   // autocommit inserts per round
	ingestBatch   = 64  // documents per InsertBatch
	ingestRounds  = 20  // rounds per cycle
	ingestCol     = "orders"
	// An empty database sets up in milliseconds, mostly fsyncs, so ingest
	// takes the median of many more set-ups than the other workloads.
	ingestSetupReps = 200
)

// ingestCycle is one cycle's database.
type ingestCycle struct {
	dir string
	db  *rx.DB
}

func openIngestCycle(cfg config, n int) (*ingestCycle, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("ingest-%d", n))
	db, err := openDB(dir, ingestPool)
	if err != nil {
		return nil, err
	}
	if err := createCollection(db, ingestCol, orderIndexes); err != nil {
		db.Close()
		return nil, err
	}
	return &ingestCycle{dir: dir, db: db}, nil
}

func (c *ingestCycle) drop() {
	c.db.Close()
	os.RemoveAll(c.dir)
}

// ingestTotals accumulates the measurements of all cycles.
type ingestTotals struct {
	inserts, traced, untraced samples // autocommit insert latency (traced/untraced: trace mode only)
	loadBytes                 int64
	loadTime                  time.Duration
	storeRatio, walRatio      []float64 // per cycle
	commits, syncs, walBytes  float64
	hits, misses, evictions   float64
	writeBacks, userBytes     float64
	ops                       int
	ixEntries, height         float64 // of the last cycle
	cycles                    int
}

func runIngest(cfg config, rng *rand.Rand) (*result, error) {
	res := newResult()
	counts := newOpCounts()
	tr := newTracer(cfg.trace)
	perCycle := ingestRounds * (ingestInserts + ingestBatch)
	docSeed := rng.Int63()
	docs := genOrders(rand.New(rand.NewSource(docSeed)), perCycle)
	cyc, setup, err := timedSetup(ingestSetupReps, func(rep int) (*ingestCycle, error) {
		return openIngestCycle(cfg, rep)
	}, (*ingestCycle).drop)
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup, "s")

	var t ingestTotals
	end := deadline(cfg)
	for n := ingestSetupReps; ; n++ {
		if err := ingestOneCycle(cyc, docs, tr, counts, res, &t); err != nil {
			return nil, err
		}
		os.RemoveAll(cyc.dir) // the abandoned handle's files; the handle itself is garbage
		cyc = nil
		if time.Now().After(end) {
			break
		}
		if cyc, err = openIngestCycle(cfg, n); err != nil {
			return nil, err
		}
	}
	counts.into(res)

	t.inserts.describe(res, "insert")
	res.note("cycles %d  documents per cycle %d  pool %d pages", t.cycles, perCycle, ingestPool)
	res.note("metric insert_p50_ms %.4f ms", t.inserts.median())
	if label, v, ok := t.inserts.tail(); ok {
		res.note("metric insert_%s_ms %.4f ms (n=%d)", label, v, len(t.inserts))
	}
	loadMiBs := ratio(float64(t.loadBytes)/mib, t.loadTime.Seconds())
	res.note("metric load_mib_s %.4f MiB/s", loadMiBs)
	res.note("metric store_bytes_per_user_byte %.4f B/B", median(t.storeRatio))
	res.note("metric wal_bytes_per_user_byte %.4f B/B", median(t.walRatio))

	res.e2e("op_p50_ms", t.inserts.median(), "ms")
	res.e2e("mib_s", loadMiBs, "MiB/s")
	res.e2e("store_bytes_per_user_byte", median(t.storeRatio), "B/B")
	res.e2e("wal_bytes_per_user_byte", median(t.walRatio), "B/B")

	if !cfg.trace {
		return res, nil
	}
	res.layer("buffer.evictions", t.evictions, "count")
	res.layer("buffer.hit_ratio", ratio(t.hits, t.hits+t.misses), "ratio")
	res.layer("buffer.misses_per_query", ratio(t.misses, float64(t.ops)), "count")
	res.layer("valueindex.entries_per_doc", t.ixEntries, "count")
	res.layer("btree.height", t.height, "count")
	res.layer("session.plan_cache_hit_ratio", 0, "ratio") // ingest plans no queries
	res.layer("trace.overhead_pct", 100*(ratio(t.traced.median(), t.untraced.median())-1), "%")

	// Layer probes run on a database of their own, loaded with this
	// workload's documents.
	pdir := filepath.Join(cfg.work, "probe")
	pdb, err := openDB(pdir, ingestPool)
	if err != nil {
		return nil, err
	}
	defer pdb.Close()
	if err := createCollection(pdb, ingestCol, orderIndexes); err != nil {
		return nil, err
	}
	sample := docs[:512]
	ids, err := loadBatches(pdb, ingestCol, sample, ingestBatch)
	if err != nil {
		return nil, err
	}
	set, err := newOrderSet(sample, ids, rand.New(rand.NewSource(docSeed)))
	if err != nil {
		return nil, err
	}
	p := orderProbe(pdb, pdir, set, len(sample), docSeed)
	if err := p.run(tr, res); err != nil {
		return nil, err
	}
	// The measured loop's own write mix, inserts and bulk loads past the
	// pool, replaces the transaction probe's figures for these.
	res.layer("wal.syncs_per_commit", ratio(t.syncs, t.commits), "count")
	res.layer("wal.bytes_per_commit", ratio(t.walBytes, t.commits), "B")
	res.layer("buffer.writebacks_per_mib", ratio(t.writeBacks, t.userBytes/mib), "count")
	return res, tr.finish(cfg, res)
}

// ingestOneCycle runs the rounds of one cycle on c, checks what it stored,
// and ends with the crash-equivalent reopen.
func ingestOneCycle(c *ingestCycle, docs [][]byte, tr *tracer, counts *opCounts, res *result, t *ingestTotals) error {
	ctx := context.Background()
	sess := c.db.Session()
	col, err := c.db.Engine().Collection(ingestCol)
	if err != nil {
		return err
	}
	before := c.db.Stats()
	_, wal0 := dbBytes(c.dir)
	acked := map[rx.DocID]int{} // DocID → index into docs
	var cycleBytes int64
	next := 0
	for round := 0; round < ingestRounds; round++ {
		traced := tr != nil && round%2 == 0
		for i := 0; i < ingestInserts; i++ {
			doc := docs[next]
			var sp int32
			if traced {
				sp = tr.begin("session.Insert", 0, tr.request())
			}
			start := time.Now()
			id, err := sess.Insert(ctx, ingestCol, doc)
			d := time.Since(start)
			tr.end(sp)
			counts.add("insert", err)
			t.ops++
			if err == nil {
				t.inserts.add(d)
				if tr != nil {
					if traced {
						t.traced.add(d)
					} else {
						t.untraced.add(d)
					}
				}
				acked[id] = next
				cycleBytes += int64(len(doc))
			}
			next++
		}
		batch := docs[next : next+ingestBatch]
		var ids []rx.DocID
		start := time.Now()
		err = tr.do("session.InsertBatch", 0, tr.request(), func() error {
			var e error
			ids, e = sess.InsertBatch(ctx, ingestCol, batch)
			return e
		})
		d := time.Since(start)
		counts.add("insert_batch", err)
		t.ops++
		if err == nil {
			t.loadTime += d
			for i, id := range ids {
				acked[id] = next + i
				t.loadBytes += int64(len(batch[i]))
				cycleBytes += int64(len(batch[i]))
			}
		}
		next += ingestBatch
	}
	after := c.db.Stats()
	store, wal1 := dbBytes(c.dir)
	t.storeRatio = append(t.storeRatio, ratio(float64(store), float64(cycleBytes)))
	t.walRatio = append(t.walRatio, ratio(float64(wal1-wal0), float64(cycleBytes)))
	t.commits += float64(after.WALCommits - before.WALCommits)
	t.syncs += float64(after.WALSyncs - before.WALSyncs)
	t.walBytes += float64(wal1 - wal0)
	t.hits += float64(after.PoolHits - before.PoolHits)
	t.misses += float64(after.PoolMisses - before.PoolMisses)
	t.evictions += float64(after.PoolEvictions - before.PoolEvictions)
	t.writeBacks += float64(after.PoolWriteBacks - before.PoolWriteBacks)
	t.userBytes += float64(cycleBytes)
	t.cycles++
	if pages := store / pagestore.PageSize; pages <= 2*ingestPool {
		res.fail("cycle store of %d pages did not outgrow the %d-page pool twice over", pages, ingestPool)
	}
	if tr != nil {
		t.ixEntries, t.height = indexShape(col, len(acked))
	}

	// The live handle must list exactly the acknowledged documents and
	// return them as they were given.
	got, err := sess.DocIDs(ctx, ingestCol)
	if err != nil {
		return err
	}
	if len(got) != len(acked) {
		res.fail("collection lists %d documents, %d were acknowledged", len(got), len(acked))
	}
	for _, id := range got {
		if _, ok := acked[id]; !ok {
			res.fail("collection lists unacknowledged document %d", id)
		}
	}
	for _, id := range got[:min(len(got), 64)] {
		if err := checkStored(sess, ingestCol, id, docs[acked[id]]); err != nil {
			res.fail("live handle: %v", err)
		}
	}

	// Crash-equivalent reopen: c.db is abandoned without Close, so nothing
	// the engine still buffers reaches the files; the OS keeps what the
	// process wrote.
	var reopened *rx.DB
	err = tr.do("rx.Open", 0, tr.request(), func() error {
		var e error
		reopened, e = openDB(c.dir, ingestPool)
		return e
	})
	counts.add("crash_reopen", err)
	t.ops++
	if err != nil {
		// Only the known fault is tolerated: a stale page checksum after
		// write-back past the last sync. Any other reopen error is a new one.
		if !errors.Is(err, rxerr.ErrChecksum) {
			res.fail("crash-equivalent reopen: %v", err)
		}
		return nil
	}
	defer reopened.Close()
	rs := reopened.Session()
	for id, i := range acked {
		if err := checkStored(rs, ingestCol, id, docs[i]); err != nil {
			res.fail("after crash-equivalent reopen: %v", err)
			break
		}
	}
	return nil
}

// checkStored fetches a document through a session and compares it with
// the bytes that were inserted, after canonicalization.
func checkStored(s session.API, col string, id rx.DocID, want []byte) error {
	got, err := s.Get(context.Background(), col, id)
	if err != nil {
		return fmt.Errorf("get %d: %w", id, err)
	}
	same, err := sameXML(got, want)
	if err != nil {
		return fmt.Errorf("get %d: canonicalize: %w", id, err)
	}
	if !same {
		return fmt.Errorf("document %d differs from its input", id)
	}
	return nil
}
