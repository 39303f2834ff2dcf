package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"rx"
	"rx/internal/xmlgen"
)

// The scan workload: one embedded session over a Catalog collection that
// fits in the buffer pool runs the paper's Table-2 queries. No index
// covers their predicates, so every plan is a scan on the parallel executor
// at its default worker count.
const (
	scanDocs     = 256
	scanProducts = 80
	scanPool     = 4096 // pages (32 MiB), the engine default
	scanCol      = "catalog"
)

var scanQueries = []struct {
	expr string
	keep func(p product) bool
}{
	{"/Catalog/Categories/Product[RegPrice > 500]/ProductName", func(p product) bool { return p.Price > 500 }},
	{"//Product[Discount > 0.2]", func(p product) bool { return p.Discount > 0.2 }},
	{"/Catalog/Categories/Product[RegPrice > 900 and Discount > 0.2]", func(p product) bool { return p.Price > 900 && p.Discount > 0.2 }},
	{"/Catalog/Categories/Product[RegPrice > 990 or Discount > 0.2]", func(p product) bool { return p.Price > 990 || p.Discount > 0.2 }},
	{"/Catalog/Categories/Product[RegPrice > 990]", func(p product) bool { return p.Price > 990 }},
}

// The string index on ProductName covers none of the Table-2 predicates;
// it gives the B+tree probes something of this workload's to read.
var scanIndexes = []valueIndex{{name: "by_name", path: "/Catalog/Categories/Product/ProductName", isString: true}}

type scanState struct {
	dir  string
	db   *rx.DB
	ids  []rx.DocID
	docs [][]byte
}

func (s *scanState) drop() { s.db.Close() }

func runScan(cfg config, rng *rand.Rand) (*result, error) {
	res := newResult()
	counts := newOpCounts()
	tr := newTracer(cfg.trace)
	docSeed := rng.Int63()
	docs := make([][]byte, scanDocs)
	g := rand.New(rand.NewSource(docSeed))
	for i := range docs {
		docs[i] = xmlgen.Catalog(g, scanProducts, 1000)
	}
	st, setup, err := timedSetup(setupReps, func(rep int) (*scanState, error) {
		dir := filepath.Join(cfg.work, fmt.Sprintf("scan-%d", rep))
		db, err := openDB(dir, scanPool)
		if err != nil {
			return nil, err
		}
		if err := createCollection(db, scanCol, scanIndexes); err != nil {
			db.Close()
			return nil, err
		}
		ids, err := loadBatches(db, scanCol, docs, 64)
		if err != nil {
			db.Close()
			return nil, err
		}
		return &scanState{dir: dir, db: db, ids: ids, docs: docs}, nil
	}, (*scanState).drop)
	if err != nil {
		return nil, err
	}
	defer st.db.Close()
	res.e2e("setup_s", setup, "s")

	// Expected matches per document for each query, from encoding/xml.
	var userBytes int64
	want := make([]map[rx.DocID]int, len(scanQueries))
	for i := range want {
		want[i] = map[rx.DocID]int{}
	}
	var names []string
	for d, doc := range st.docs {
		userBytes += int64(len(doc))
		prods, err := decodeCatalog(doc)
		if err != nil {
			return nil, err
		}
		for i, q := range scanQueries {
			for _, p := range prods {
				if q.keep(p) {
					want[i][st.ids[d]]++
				}
			}
		}
		names = append(names, prods[0].Name)
	}
	store, wal := dbBytes(st.dir)
	res.e2e("store_bytes_per_user_byte", ratio(float64(store), float64(userBytes)), "B/B")
	res.e2e("wal_bytes_per_user_byte", ratio(float64(wal), float64(userBytes)), "B/B")

	ctx := context.Background()
	sess := st.db.Session()
	var lat, traced, untraced samples
	before := st.db.Stats()
	end := deadline(cfg)
	for round := 0; time.Now().Before(end); round++ {
		on := tr != nil && round%2 == 0
		for i, q := range scanQueries {
			var req uint64
			var op int32
			if on {
				req = tr.request()
				op = tr.begin("bench.scan", 0, req)
			}
			start := time.Now()
			got := map[rx.DocID]int{}
			var method string
			var sp int32
			if on {
				sp = tr.begin("session.Query", op, req)
			}
			err := func() error {
				cur, err := sess.Query(ctx, scanCol, q.expr)
				if err != nil {
					return err
				}
				defer cur.Close()
				method = cur.Plan().Method
				var last rx.DocID
				for cur.Next() {
					r := cur.Result()
					if r.Doc < last {
						return fmt.Errorf("query %s: results out of DocID order", q.expr)
					}
					last = r.Doc
					got[r.Doc]++
				}
				return cur.Err()
			}()
			tr.end(sp)
			d := time.Since(start)
			tr.end(op)
			counts.add("scan_query", err)
			if err != nil {
				continue
			}
			lat.add(d)
			if tr != nil {
				if on {
					traced.add(d)
				} else {
					untraced.add(d)
				}
			}
			if method != "scan" {
				res.fail("query %s planned as %s, not a scan", q.expr, method)
			}
			if !sameCounts(got, want[i]) {
				res.fail("query %s: per-document result counts differ from encoding/xml", q.expr)
			}
		}
	}
	after := st.db.Stats()
	counts.into(res)
	lat.describe(res, "scan")
	res.note("collection %d documents x %d products, %.2f MiB user data, pool %d pages, store %.2f MiB",
		scanDocs, scanProducts, float64(userBytes)/mib, scanPool, float64(store)/mib)
	scanMiBs := ratio(float64(userBytes)*float64(len(lat))/mib, lat.sum()/1e3)
	res.note("metric scan_mib_s %.4f MiB/s", scanMiBs)
	res.note("metric scan_p50_ms %.4f ms", lat.median())
	res.e2e("op_p50_ms", lat.median(), "ms")
	res.e2e("mib_s", scanMiBs, "MiB/s")
	if !cfg.trace {
		return res, nil
	}

	hits := float64(after.PoolHits - before.PoolHits)
	misses := float64(after.PoolMisses - before.PoolMisses)
	res.layer("buffer.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.layer("buffer.misses_per_query", ratio(misses, float64(len(lat))), "count")
	res.layer("buffer.evictions", float64(after.PoolEvictions-before.PoolEvictions), "count")
	ph := float64(after.PlanCacheHits - before.PlanCacheHits)
	pm := float64(after.PlanCacheMisses - before.PlanCacheMisses)
	res.layer("session.plan_cache_hit_ratio", ratio(ph, ph+pm), "ratio")
	col, err := st.db.Engine().Collection(scanCol)
	if err != nil {
		return nil, err
	}
	e, h := indexShape(col, scanDocs)
	res.layer("valueindex.entries_per_doc", e, "count")
	res.layer("btree.height", h, "count")
	res.layer("trace.overhead_pct", 100*(ratio(traced.median(), untraced.median())-1), "%")

	queries := make([]string, len(scanQueries))
	for i, q := range scanQueries {
		queries[i] = q.expr
	}
	p := &probe{db: st.db, dir: st.dir, col: scanCol, docs: st.docs[:64], ids: st.ids[:64],
		scanExpr: scanQueries[0].expr, queries: queries, pointIndex: "by_name", pointKeys: names, indexes: scanIndexes}
	if err := p.run(tr, res); err != nil {
		return nil, err
	}
	return res, tr.finish(cfg, res)
}

// sameCounts compares per-document match counts.
func sameCounts(got, want map[rx.DocID]int) bool {
	if len(got) != len(want) {
		return false
	}
	for d, n := range want {
		if got[d] != n {
			return false
		}
	}
	return true
}
