// Command perfbench is the engine's end-to-end and per-layer benchmark.
//
// It runs one named workload against the real stack — a file page store
// with checksums, a write-ahead log synced on every commit (group commit
// off), and for the lookup workload a loopback rxserver reached through the
// Go client — checks every result against answers computed apart from the
// engine, and prints one JSON object as its last line of output:
//
//	perfbench --workload ingest|lookup|scan --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 a
// traced run records a span around every call into an engine layer, runs
// the layer probes, writes the span dump, and the JSON carries the
// per-layer metrics. The lines before the JSON are a human-readable report:
// every metric by name and unit, sample counts, and per-operation
// attempted/failed counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for database files, removed at exit
	dump     string // directory for span dumps
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]metric // the BENCHMARK.json end-to-end set
	layers    map[string]metric // the BENCHMARK.json per-layer set
	report    []string          // report lines: the workload's own metric names, counts
}

func newResult() *result {
	return &result{correct: true, endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) e2e(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}
func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and records why.
func (r *result) fail(format string, args ...any) {
	if r.correct {
		r.note("CHECK FAILED: "+format, args...)
	}
	r.correct = false
}

var workloads = map[string]func(cfg config, rng *rand.Rand) (*result, error){
	"ingest": runIngest,
	"lookup": runLookup,
	"scan":   runScan,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, lookup or scan")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for scratch databases and span dumps")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|lookup|scan --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.work = filepath.Join(*dir, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	cfg.dump = filepath.Join(*dir, "trace")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(cfg, rand.New(rand.NewSource(cfg.seed)))
	os.RemoveAll(cfg.work)
	if err != nil {
		fatal(err)
	}
	res.e2e("peak_rss_mib", peakRSSMiB(), "MiB")
	metrics := res.endToEnd
	if cfg.trace {
		metrics = res.layers
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v nproc %d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU())
	for _, line := range res.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// opCounts tallies attempted and failed operations per kind, so every run
// can print them and the totals land in the JSON.
type opCounts struct {
	kinds     []string
	attempted map[string]int
	failed    map[string]int
	firstErr  map[string]string
}

func newOpCounts() *opCounts {
	return &opCounts{attempted: map[string]int{}, failed: map[string]int{}, firstErr: map[string]string{}}
}

// add records one operation of kind; err != nil counts it failed.
func (c *opCounts) add(kind string, err error) {
	if _, ok := c.attempted[kind]; !ok {
		c.kinds = append(c.kinds, kind)
	}
	c.attempted[kind]++
	if err != nil {
		c.failed[kind]++
		if _, ok := c.firstErr[kind]; !ok {
			c.firstErr[kind] = err.Error()
		}
	}
}

// merge folds another tally (one worker's) into c.
func (c *opCounts) merge(o *opCounts) {
	for _, k := range o.kinds {
		if _, ok := c.attempted[k]; !ok {
			c.kinds = append(c.kinds, k)
		}
		c.attempted[k] += o.attempted[k]
		c.failed[k] += o.failed[k]
		if e, ok := o.firstErr[k]; ok {
			if _, have := c.firstErr[k]; !have {
				c.firstErr[k] = e
			}
		}
	}
}

// into writes the totals and the per-kind report lines into res.
func (c *opCounts) into(res *result) {
	for _, k := range c.kinds {
		res.attempted += c.attempted[k]
		res.failed += c.failed[k]
		line := fmt.Sprintf("ops %-14s attempted %7d failed %7d", k, c.attempted[k], c.failed[k])
		if e, ok := c.firstErr[k]; ok {
			line += "  first error: " + strings.TrimSpace(e)
		}
		res.note("%s", line)
	}
}

// deadline is the end of the measured window.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds) * time.Second)
}
