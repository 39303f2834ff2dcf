package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rx"
	"rx/client"
	"rx/internal/pagestore"
)

// The lookup workload: nproc client connections in a closed loop against an
// in-process rxserver on loopback, over an Orders collection several times
// larger than the buffer pool. Each round is an equality query on the
// string index, a narrow range query on the double index, and a Get of a
// document the equality query hit. Keys are drawn with a seeded Zipf skew,
// so some reads hit the pool and some miss.
const (
	lookupDocs = 4000
	lookupPool = 256 // pages (2 MiB)
	lookupCol  = "orders"
	rangeMin   = 4  // the range query matches rangeMin..rangeMin+rangeSpan-1
	rangeSpan  = 20 // of the highest totals
)

// orderSet is an Orders collection with the expected answers computed from
// the input bytes by encoding/xml.
type orderSet struct {
	docs       [][]byte
	ids        []rx.DocID
	customers  []string // per document
	byCustomer map[string]map[rx.DocID]bool
	thresholds []float64           // range threshold per match count
	aboveDocs  []map[rx.DocID]bool // expected documents per threshold
	perm       []int               // skew order: perm[rank] = document
}

func newOrderSet(docs [][]byte, ids []rx.DocID, rng *rand.Rand) (*orderSet, error) {
	s := &orderSet{docs: docs, ids: ids, byCustomer: map[string]map[rx.DocID]bool{}}
	totals := make([]float64, len(docs))
	for i, doc := range docs {
		o, err := decodeOrder(doc)
		if err != nil {
			return nil, err
		}
		s.customers = append(s.customers, o.Customer)
		if s.byCustomer[o.Customer] == nil {
			s.byCustomer[o.Customer] = map[rx.DocID]bool{}
		}
		s.byCustomer[o.Customer][ids[i]] = true
		totals[i] = o.Total
	}
	desc := append([]float64(nil), totals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	for k := rangeMin; k < rangeMin+rangeSpan; k++ {
		// Totals carry two decimals, so a threshold half a cent above the
		// k-th highest total never ties with a stored value.
		x := desc[k] + 0.005
		above := map[rx.DocID]bool{}
		for i, t := range totals {
			if t > x {
				above[ids[i]] = true
			}
		}
		s.thresholds = append(s.thresholds, x)
		s.aboveDocs = append(s.aboveDocs, above)
	}
	s.perm = rng.Perm(len(docs))
	return s, nil
}

// drawer draws skewed lookup keys for one connection.
type drawer struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	set  *orderSet
}

func (s *orderSet) drawer(seed int64) *drawer {
	rng := rand.New(rand.NewSource(seed))
	return &drawer{rng: rng, zipf: rand.NewZipf(rng, 1.1, 4, uint64(len(s.docs)-1)), set: s}
}

// point draws a document and its equality query.
func (d *drawer) point() (doc int, expr string) {
	doc = d.set.perm[d.zipf.Uint64()]
	return doc, fmt.Sprintf(`/Order[Customer = "%s"]`, d.set.customers[doc])
}

// rangeQuery draws a threshold index and its range query.
func (d *drawer) rangeQuery() (k int, expr string) {
	k = d.rng.Intn(rangeSpan)
	return k, fmt.Sprintf(`/Order[Total > %.3f]`, d.set.thresholds[k])
}

// orderProbe builds the probe suite's inputs for an Orders collection.
func orderProbe(db *rx.DB, dir string, set *orderSet, n int, seed int64) *probe {
	p := &probe{db: db, dir: dir, col: lookupCol, docs: set.docs[:n], ids: set.ids[:n],
		scanExpr: "/Order/Items/Item[Price > 90]/Part", pointIndex: "by_customer", indexes: orderIndexes}
	dr := set.drawer(seed)
	for i := 0; i < 16; i++ {
		doc, pe := dr.point()
		_, re := dr.rangeQuery()
		p.queries = append(p.queries, pe, re)
		p.pointKeys = append(p.pointKeys, set.customers[doc])
	}
	return p
}

type lookupState struct {
	dir   string
	db    *rx.DB
	ids   []rx.DocID
	docs  [][]byte
	srv   *loopback
	conns []*client.DB
}

func (s *lookupState) drop() {
	for _, c := range s.conns {
		c.Close()
	}
	s.srv.stop()
	s.db.Close()
}

// lookupWorker is one connection's measurements.
type lookupWorker struct {
	point, rng, get  samples
	traced, untraced samples
	counts           *opCounts
	rounds, getBytes int64
	failures         []string
}

func (w *lookupWorker) fail(format string, args ...any) {
	if len(w.failures) < 4 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

func runLookup(cfg config, rng *rand.Rand) (*result, error) {
	res := newResult()
	tr := newTracer(cfg.trace)
	nconn := runtime.NumCPU()
	docSeed := rng.Int63()
	docs := genOrders(rand.New(rand.NewSource(docSeed)), lookupDocs)
	st, setup, err := timedSetup(setupReps, func(rep int) (*lookupState, error) {
		dir := filepath.Join(cfg.work, fmt.Sprintf("lookup-%d", rep))
		db, err := openDB(dir, lookupPool)
		if err != nil {
			return nil, err
		}
		st := &lookupState{dir: dir, db: db, docs: docs}
		if err := createCollection(db, lookupCol, orderIndexes); err != nil {
			db.Close()
			return nil, err
		}
		if st.ids, err = loadBatches(db, lookupCol, docs, 256); err != nil {
			db.Close()
			return nil, err
		}
		if st.srv, err = startServer(db); err != nil {
			db.Close()
			return nil, err
		}
		for i := 0; i < nconn; i++ {
			c, err := client.Dial(st.srv.addr)
			if err != nil {
				st.drop()
				return nil, err
			}
			st.conns = append(st.conns, c)
		}
		return st, nil
	}, (*lookupState).drop)
	if err != nil {
		return nil, err
	}
	defer st.drop()
	res.e2e("setup_s", setup, "s")

	set, err := newOrderSet(st.docs, st.ids, rng)
	if err != nil {
		return nil, err
	}
	var userBytes int64
	for _, d := range st.docs {
		userBytes += int64(len(d))
	}
	store, wal := dbBytes(st.dir)
	res.e2e("store_bytes_per_user_byte", ratio(float64(store), float64(userBytes)), "B/B")
	res.e2e("wal_bytes_per_user_byte", ratio(float64(wal), float64(userBytes)), "B/B")

	before := st.db.Stats()
	workers := make([]*lookupWorker, nconn)
	seeds := make([]int64, nconn)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	end := deadline(cfg)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range workers {
		w := &lookupWorker{counts: newOpCounts()}
		workers[i] = w
		wg.Add(1)
		go func(c *client.DB, dr *drawer) {
			defer wg.Done()
			w.loop(c, dr, end, tr)
		}(st.conns[i], set.drawer(seeds[i]))
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := st.db.Stats()

	counts := newOpCounts()
	var all lookupWorker
	for _, w := range workers {
		counts.merge(w.counts)
		all.point = append(all.point, w.point...)
		all.rng = append(all.rng, w.rng...)
		all.get = append(all.get, w.get...)
		all.traced = append(all.traced, w.traced...)
		all.untraced = append(all.untraced, w.untraced...)
		all.rounds += w.rounds
		all.getBytes += w.getBytes
		for _, f := range w.failures {
			res.fail("%s", f)
		}
	}
	counts.into(res)
	all.point.describe(res, "point")
	all.rng.describe(res, "range")
	all.get.describe(res, "get")
	ops := float64(3 * all.rounds)
	res.note("collection %d documents, %.2f MiB user data, store %.2f MiB, pool %d pages (%.1fx smaller than the store), %d connections",
		lookupDocs, float64(userBytes)/mib, float64(store)/mib, lookupPool, float64(store)/float64(lookupPool*pagestore.PageSize), nconn)
	res.note("metric point_p50_ms %.4f ms", all.point.median())
	if label, v, ok := all.point.tail(); ok {
		res.note("metric point_%s_ms %.4f ms (n=%d)", label, v, len(all.point))
	}
	res.note("metric range_p50_ms %.4f ms", all.rng.median())
	res.note("metric get_p50_ms %.4f ms", all.get.median())
	res.note("metric lookup_ops_s %.2f ops/s", ops/elapsed.Seconds())
	res.e2e("op_p50_ms", all.point.median(), "ms")
	res.e2e("mib_s", float64(all.getBytes)/mib/elapsed.Seconds(), "MiB/s")
	if !cfg.trace {
		return res, nil
	}

	hits := float64(after.PoolHits - before.PoolHits)
	misses := float64(after.PoolMisses - before.PoolMisses)
	res.layer("buffer.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.layer("buffer.misses_per_query", ratio(misses, ops), "count")
	res.layer("buffer.evictions", float64(after.PoolEvictions-before.PoolEvictions), "count")
	ph := float64(after.PlanCacheHits - before.PlanCacheHits)
	pm := float64(after.PlanCacheMisses - before.PlanCacheMisses)
	res.layer("session.plan_cache_hit_ratio", ratio(ph, ph+pm), "ratio")
	col, err := st.db.Engine().Collection(lookupCol)
	if err != nil {
		return nil, err
	}
	e, h := indexShape(col, lookupDocs)
	res.layer("valueindex.entries_per_doc", e, "count")
	res.layer("btree.height", h, "count")
	res.layer("trace.overhead_pct", 100*(ratio(all.traced.median(), all.untraced.median())-1), "%")

	p := orderProbe(st.db, st.dir, set, 256, docSeed)
	if err := p.run(tr, res); err != nil {
		return nil, err
	}
	return res, tr.finish(cfg, res)
}

// loop runs whole rounds until the deadline.
func (w *lookupWorker) loop(c *client.DB, dr *drawer, end time.Time, tr *tracer) {
	ctx := context.Background()
	set := dr.set
	for round := 0; time.Now().Before(end); round++ {
		on := tr != nil && round%2 == 0
		var req uint64
		if on {
			req = tr.request()
		}
		span := func(name string) int32 {
			if !on {
				return 0
			}
			return tr.begin(name, 0, req)
		}

		doc, expr := dr.point()
		sp := span("client.Query")
		start := time.Now()
		rows, err := drain(c, lookupCol, expr)
		d := time.Since(start)
		tr.end(sp)
		w.counts.add("point", err)
		if err == nil {
			w.point.add(d)
			if tr != nil {
				if on {
					w.traced.add(d)
				} else {
					w.untraced.add(d)
				}
			}
			if !sameDocs(rows, set.byCustomer[set.customers[doc]]) {
				w.fail("point query %s: DocIDs differ from encoding/xml", expr)
			}
		}

		k, expr := dr.rangeQuery()
		sp = span("client.Query")
		start = time.Now()
		rows, err = drain(c, lookupCol, expr)
		d = time.Since(start)
		tr.end(sp)
		w.counts.add("range", err)
		if err == nil {
			w.rng.add(d)
			if !sameDocs(rows, set.aboveDocs[k]) {
				w.fail("range query %s: matches differ from encoding/xml", expr)
			}
		}

		sp = span("client.Get")
		start = time.Now()
		got, err := c.Get(ctx, lookupCol, set.ids[doc])
		d = time.Since(start)
		tr.end(sp)
		w.counts.add("get", err)
		if err == nil {
			w.get.add(d)
			w.getBytes += int64(len(got))
			if same, cerr := sameXML(got, set.docs[doc]); cerr != nil || !same {
				w.fail("get %d: output differs from the input document", set.ids[doc])
			}
		}
		w.rounds++
	}
}
