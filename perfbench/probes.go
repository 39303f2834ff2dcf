package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"rx"
	"rx/client"
	"rx/internal/core"
	"rx/internal/heap"
	"rx/internal/pack"
	"rx/internal/pagestore"
	"rx/internal/quickxscan"
	"rx/internal/server"
	"rx/internal/session"
	"rx/internal/valueindex"
	"rx/internal/wire"
	"rx/internal/xmlparse"
	"rx/internal/xpath"
)

// Layer probes: each times one module's exported calls on the workload's
// own inputs, from outside the module, inside a span named after the
// module. They run after a traced workload's measured loop, so they never
// disturb it.

// probe holds the inputs of the probe suite for one workload.
type probe struct {
	db         *rx.DB
	dir        string // the database's directory (for file sizes)
	col        string // collection holding docs
	docs       [][]byte
	ids        []rx.DocID // DocIDs of docs in col
	scanExpr   string     // query the QuickXScan probe evaluates
	queries    []string   // query list for the plan, allocation, wire and client probes
	pointIndex string     // value index the B+tree probe reads
	pointKeys  []string   // equality literals for it
	indexes    []valueIndex
}

// probeBudget is how long each timed probe repeats its input.
const probeBudget = 200 * time.Millisecond

// repeat calls fn over and over until probeBudget has passed (at least
// once) and returns the elapsed time and the number of calls.
func repeat(fn func() error) (time.Duration, int, error) {
	start := time.Now()
	n := 0
	for {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
		if d := time.Since(start); d >= probeBudget {
			return d, n, nil
		}
	}
}

// run measures every probe metric into res.
func (p *probe) run(tr *tracer, res *result) error {
	tr.startProbes()
	eng := p.db.Engine()
	col, err := eng.Collection(p.col)
	if err != nil {
		return err
	}
	var userBytes int64
	for _, d := range p.docs {
		userBytes += int64(len(d))
	}
	names := eng.Names()

	// xmlparse and pack over the workload's documents.
	streams := make([][]byte, len(p.docs))
	for i, d := range p.docs {
		if streams[i], err = xmlparse.Parse(d, names, xmlparse.Options{}); err != nil {
			return err
		}
	}
	req := tr.request()
	var d time.Duration
	var n int
	err = tr.do("xmlparse.Parse", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			for _, doc := range p.docs {
				if _, err := xmlparse.Parse(doc, names, xmlparse.Options{}); err != nil {
					return err
				}
			}
			return nil
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("xmlparse.mib_s", float64(userBytes)*float64(n)/mib/d.Seconds(), "MiB/s")
	records := 0
	err = tr.do("pack.PackStream", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			records = 0
			for _, s := range streams {
				err := pack.PackStream(s, pack.DefaultThreshold, func(pack.EncodedRecord) error {
					records++
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("pack.mib_s", float64(userBytes)*float64(n)/mib/d.Seconds(), "MiB/s")
	res.layer("pack.records_per_doc", ratio(float64(records), float64(len(p.docs))), "count")

	// QuickXScan over the same token streams.
	q, err := xpath.Parse(p.scanExpr)
	if err != nil {
		return err
	}
	ev, err := quickxscan.Compile(q, names, nil, quickxscan.Options{})
	if err != nil {
		return err
	}
	err = tr.do("quickxscan.EvalTokens", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			for _, s := range streams {
				if _, err := quickxscan.EvalTokens(ev, s); err != nil {
					return err
				}
			}
			return nil
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("quickxscan.mib_s", float64(userBytes)*float64(n)/mib/d.Seconds(), "MiB/s")

	// Heap scan and pack decode over the stored XML table.
	var scanned int64
	var payloads [][]byte
	err = tr.do("heap.Table.Scan", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			scanned = 0
			payloads = payloads[:0]
			return col.XMLTable().Scan(func(_ heap.RID, row []byte) error {
				scanned += int64(len(row))
				payloads = append(payloads, row)
				return nil
			})
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("heap.scan_mib_s", float64(scanned)*float64(n)/mib/d.Seconds(), "MiB/s")
	for i, row := range payloads {
		if payloads[i], err = packPayload(row); err != nil {
			return err
		}
	}
	err = tr.do("pack.Decode", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			for _, pl := range payloads {
				if err := walkRecord(pl); err != nil {
					return err
				}
			}
			return nil
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("pack.decode_mib_s", float64(scanned)*float64(n)/mib/d.Seconds(), "MiB/s")

	// Planning, index probes, page reads, record fetch and serialization.
	var plans samples
	for i := 0; i < 3; i++ {
		for _, expr := range p.queries {
			start := time.Now()
			err := tr.do("core.Collection.Plan", 0, req, func() error {
				_, e := col.Plan(expr, core.QueryOptions{})
				return e
			})
			if err != nil {
				return err
			}
			plans.add(time.Since(start))
		}
	}
	res.layer("core.plan_us", plans.median()*1e3, "us")

	ix := col.ValueIndex(p.pointIndex)
	if ix == nil {
		return fmt.Errorf("probe: no value index %q", p.pointIndex)
	}
	var probes samples
	for _, key := range p.pointKeys {
		start := time.Now()
		err := tr.do("valueindex.Index.Scan", 0, req, func() error {
			r, e := ix.RangeForOp(xpath.EQ, xpath.Literal{Str: key})
			if e != nil {
				return e
			}
			return ix.Scan(r, func(valueindex.Entry) bool { return true })
		})
		if err != nil {
			return err
		}
		probes.add(time.Since(start))
	}
	res.layer("valueindex.probe_us", probes.median()*1e3, "us")

	store := eng.Pool().Store()
	pages := store.NumPages()
	step := max(1, int(pages)/2048)
	buf := make([]byte, pagestore.PageSize)
	var reads samples
	for id := 0; id < int(pages); id += step {
		start := time.Now()
		err := tr.do("pagestore.ReadPage", 0, req, func() error { return store.ReadPage(pagestore.PageID(id), buf) })
		if err != nil {
			return err
		}
		reads.add(time.Since(start))
	}
	res.layer("pagestore.read_us", reads.median()*1e3, "us")

	var fetches samples
	for _, id := range p.ids {
		rid, err := col.NodeIndex().RootRID(id)
		if err != nil {
			return err
		}
		start := time.Now()
		err = tr.do("heap.Table.Fetch", 0, req, func() error {
			_, e := col.XMLTable().Fetch(rid)
			return e
		})
		if err != nil {
			return err
		}
		fetches.add(time.Since(start))
	}
	res.layer("heap.fetch_us", fetches.median()*1e3, "us")

	err = tr.do("serialize.Collection.Serialize", 0, req, func() (e error) {
		d, n, e = repeat(func() error {
			for _, id := range p.ids {
				if err := col.Serialize(id, io.Discard); err != nil {
					return err
				}
			}
			return nil
		})
		return e
	})
	if err != nil {
		return err
	}
	res.layer("serialize.mib_s", float64(userBytes)*float64(n)/mib/d.Seconds(), "MiB/s")

	// Allocations per result of the query list, embedded.
	sess := p.db.NewSession()
	defer sess.Close()
	rows := make([][]core.Result, len(p.queries))
	var ms0, ms1 runtime.MemStats
	results := 0
	runtime.ReadMemStats(&ms0)
	for i, expr := range p.queries {
		if rows[i], err = drain(sess, p.col, expr); err != nil {
			return err
		}
		results += len(rows[i])
	}
	runtime.ReadMemStats(&ms1)
	res.layer("runtime.allocs_per_result", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(results)), "count")

	// Wire frames at the query list's result sizes.
	var frames samples
	var fb bytes.Buffer
	for _, r := range rows {
		rr := wire.RowsResp{Done: true, Rows: r}
		start := time.Now()
		err := tr.do("wire.Frame", 0, req, func() error {
			fb.Reset()
			if err := wire.WriteFrame(&fb, wire.MsgRows, rr.Encode()); err != nil {
				return err
			}
			_, payload, err := wire.ReadFrame(&fb)
			if err != nil {
				return err
			}
			_, err = wire.DecodeRowsResp(payload)
			return err
		})
		if err != nil {
			return err
		}
		frames.add(time.Since(start))
	}
	res.layer("wire.frame_us", frames.median()*1e3, "us")

	// Client overhead: the same query list remote minus embedded.
	lb, err := startServer(p.db)
	if err != nil {
		return err
	}
	defer lb.stop()
	cl, err := client.Dial(lb.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var local, remote samples
	timed := func(name string, api session.API, expr string, into *samples) error {
		start := time.Now()
		err := tr.do(name, 0, req, func() error {
			_, e := drain(api, p.col, expr)
			return e
		})
		into.add(time.Since(start))
		return err
	}
	for i := 0; i < 5; i++ {
		for _, expr := range p.queries {
			if err := timed("session.Query", sess, expr, &local); err != nil {
				return err
			}
			if err := timed("client.Query", cl, expr, &remote); err != nil {
				return err
			}
		}
	}
	res.layer("client.overhead_us", (remote.median()-local.median())*1e3, "us")
	res.note("client: query list p50 remote %.1f us, embedded %.1f us (%.1fx)",
		remote.median()*1e3, local.median()*1e3, ratio(remote.median(), local.median()))

	if err := p.txnProbe(tr, res); err != nil {
		return err
	}
	return p.allocProbe(res)
}

// probeCol is the collection the writing probes insert into.
const probeCol = "probe"

// txnProbe inserts documents one transaction each, timing Txn.Insert and
// Txn.Commit and counting WAL syncs, WAL bytes and write-backs.
func (p *probe) txnProbe(tr *tracer, res *result) error {
	if err := createCollection(p.db, probeCol, p.indexes); err != nil {
		return err
	}
	eng := p.db.Engine()
	col, err := eng.Collection(probeCol)
	if err != nil {
		return err
	}
	before := p.db.Stats()
	_, wal0 := dbBytes(p.dir)
	var insert, commit samples
	var userBytes int64
	for _, doc := range p.docs[:min(64, len(p.docs))] {
		if err := txnInsert(eng, col, doc, tr, &insert, &commit); err != nil {
			return err
		}
		userBytes += int64(len(doc))
	}
	after := p.db.Stats()
	_, wal1 := dbBytes(p.dir)
	commits := float64(after.WALCommits - before.WALCommits)
	res.layer("core.txn_insert_p50_ms", insert.median(), "ms")
	res.layer("core.txn_commit_p50_ms", commit.median(), "ms")
	res.layer("wal.syncs_per_commit", ratio(float64(after.WALSyncs-before.WALSyncs), commits), "count")
	res.layer("wal.bytes_per_commit", ratio(float64(wal1-wal0), commits), "B")
	res.layer("buffer.writebacks_per_mib", ratio(float64(after.PoolWriteBacks-before.PoolWriteBacks), float64(userBytes)/mib), "count")
	return nil
}

// txnInsert is one autocommit insert through Txn.Insert and Txn.Commit,
// each timed and recorded as a span.
func txnInsert(eng *core.DB, col *core.Collection, doc []byte, tr *tracer, insert, commit *samples) error {
	req := tr.request()
	op := tr.begin("bench.insert", 0, req)
	defer tr.end(op)
	txn := eng.Begin()
	start := time.Now()
	sp := tr.begin("core.Txn.Insert", op, req)
	_, err := txn.Insert(col, doc)
	tr.end(sp)
	insert.add(time.Since(start))
	if err != nil {
		txn.Rollback()
		return err
	}
	start = time.Now()
	sp = tr.begin("core.Txn.Commit", op, req)
	err = txn.Commit()
	tr.end(sp)
	commit.add(time.Since(start))
	return err
}

// allocProbe counts allocations of autocommit session inserts.
func (p *probe) allocProbe(res *result) error {
	if _, err := p.db.Engine().Collection(probeCol); err != nil {
		if err := createCollection(p.db, probeCol, p.indexes); err != nil {
			return err
		}
	}
	ctx := context.Background()
	sess := p.db.Session()
	docs := p.docs[:min(64, len(p.docs))]
	var userBytes int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, doc := range docs {
		if _, err := sess.Insert(ctx, probeCol, doc); err != nil {
			return err
		}
		userBytes += int64(len(doc))
	}
	runtime.ReadMemStats(&ms1)
	res.layer("runtime.allocs_per_insert", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(docs))), "count")
	res.layer("runtime.alloc_bytes_per_user_byte", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(userBytes)), "B/B")
	return nil
}

// drain runs a query through a session and collects its results, checking
// that they arrive in ascending DocID order.
func drain(api session.API, col, expr string) ([]core.Result, error) {
	cur, err := api.Query(context.Background(), col, expr)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []core.Result
	for cur.Next() {
		out = append(out, cur.Result())
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	for i := 1; i < len(out); i++ {
		if out[i].Doc < out[i-1].Doc {
			return nil, fmt.Errorf("query %s: results out of DocID order", expr)
		}
	}
	return out, nil
}

// packPayload strips the XML table row header — DocID, then the
// uvarint-prefixed minimum node ID — leaving the packed record.
func packPayload(row []byte) ([]byte, error) {
	if len(row) < 9 {
		return nil, fmt.Errorf("short XML row")
	}
	l, n := binary.Uvarint(row[8:])
	if n <= 0 || 8+n+int(l) > len(row) {
		return nil, fmt.Errorf("corrupt XML row")
	}
	return row[8+n+int(l):], nil
}

// walkRecord decodes a packed record and visits every node in it.
func walkRecord(payload []byte) error {
	rec, err := pack.Decode(payload)
	if err != nil {
		return err
	}
	var visit func(n pack.Node) (bool, error)
	visit = func(n pack.Node) (bool, error) {
		return true, rec.Children(&n, visit)
	}
	return rec.Top(visit)
}

// indexShape reports a collection's value-index entries per document and
// the height of its tallest B+tree.
func indexShape(col *rx.Collection, docs int) (entriesPerDoc, height float64) {
	entries := 0
	h, _ := col.NodeIndex().Tree().Height()
	for _, name := range col.ValueIndexes() {
		ix := col.ValueIndex(name)
		if n, err := ix.Count(); err == nil {
			entries += n
		}
		if ih, err := ix.Tree().Height(); err == nil && ih > h {
			h = ih
		}
	}
	return ratio(float64(entries), float64(docs)), float64(h)
}

// loopback is an in-process rxserver on a loopback port.
type loopback struct {
	srv  *server.Server
	addr string
	done chan error
}

func startServer(db *rx.DB) (*loopback, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: server.New(db.Engine(), server.Options{}), addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(lis) }()
	return lb, nil
}

// stop shuts the server down and waits for it to end.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.srv.Shutdown(ctx)
	<-lb.done
}
