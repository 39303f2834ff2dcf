package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rx"
	"rx/internal/xmlgen"
)

// Every workload runs on the durable stack: file page store with page
// checksums, WAL synced on every commit, group commit off.

// dbPaths names a database's files inside its directory.
func dbPaths(dir string) (data, log string) {
	return filepath.Join(dir, "data.rxdb"), filepath.Join(dir, "data.wal")
}

// openDB opens (creating if needed) the database in dir.
func openDB(dir string, poolPages int) (*rx.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, log := dbPaths(dir)
	return rx.Open(data, rx.WithWAL(log), rx.WithChecksums(), rx.WithPoolPages(poolPages))
}

// valueIndex is one value index definition.
type valueIndex struct {
	name, path string
	isString   bool // string index; otherwise double
}

// createCollection creates col with its value indexes through the session.
func createCollection(db *rx.DB, col string, ixs []valueIndex) error {
	ctx := context.Background()
	s := db.Session()
	if err := s.CreateCollection(ctx, col); err != nil {
		return err
	}
	for _, ix := range ixs {
		typ := rx.TypeDouble
		if ix.isString {
			typ = rx.TypeString
		}
		if err := s.CreateValueIndex(ctx, col, ix.name, ix.path, typ); err != nil {
			return err
		}
	}
	return nil
}

// fileSize is a file's size in bytes (0 if missing).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// dbBytes is the size of a database's page file and log.
func dbBytes(dir string) (store, log int64) {
	data, wal := dbPaths(dir)
	return fileSize(data), fileSize(wal)
}

// Orders documents: a customer, orderLines line items and a total. The
// string index covers Customer, the double index Total.
const orderLines = 20

var orderIndexes = []valueIndex{
	{name: "by_customer", path: "/Order/Customer", isString: true},
	{name: "by_total", path: "/Order/Total"},
}

func genOrders(rng *rand.Rand, n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = xmlgen.Orders(rng, orderLines)
	}
	return docs
}

// loadBatches bulk-loads docs through the session in batches of size and
// returns the DocIDs in input order.
func loadBatches(db *rx.DB, col string, docs [][]byte, size int) ([]rx.DocID, error) {
	ctx := context.Background()
	ids := make([]rx.DocID, 0, len(docs))
	for lo := 0; lo < len(docs); lo += size {
		hi := min(lo+size, len(docs))
		got, err := db.Session().InsertBatch(ctx, col, docs[lo:hi])
		if err != nil {
			return nil, err
		}
		if len(got) != hi-lo {
			return nil, fmt.Errorf("InsertBatch returned %d ids for %d documents", len(got), hi-lo)
		}
		ids = append(ids, got...)
	}
	return ids, nil
}

// timedSetup runs setup reps times and returns the last repetition's state,
// which the workload goes on to use, with the median duration in seconds;
// every earlier repetition's state is dropped.
func timedSetup[T any](reps int, setup func(rep int) (T, error), drop func(T)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		st, err := setup(rep)
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if rep < reps-1 {
			drop(st)
		} else {
			last = st
		}
	}
	return last, median(secs), nil
}

// setupReps is how many times a run sets up its workload to report a
// median set-up time.
const setupReps = 3
