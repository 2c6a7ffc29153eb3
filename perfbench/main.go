// Command perfbench is the repository's benchmark: it sets up the KOSR
// system from a generated graph the way kosrd serves it (packed, mmap'd
// flat index; prewarmed scratches; 4096-entry result cache; 5,000,000
// examined-route budget), drives one workload against it from this
// process, checks every answer against an independent Dijkstra oracle,
// and prints the run's metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload serve-unique --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded, follows it with a layer probe, prints
// the per-layer metrics and writes the spans to .bench_build/. Run it
// through run.sh, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir holds everything a run writes, inside the checkout.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: serve-unique, serve-cached, live-updates or engine-methods")
	seed := flag.Int64("seed", 1, "seed for every request and update (the graphs are fixed)")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (serve-unique|serve-cached|live-updates|engine-methods), --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// live-updates needs its two clients, a writer and a reader, running
	// at once; with fewer Ps it would exceed one client goroutine per P.
	if wl.updates && runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs GOMAXPROCS >= 2, have %d\n", wl.name, runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(wl, *seed, time.Duration(*seconds)*time.Second, buildDir, *trace == 1)
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := r.result()
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	fmt.Fprintf(os.Stderr, "timeline: %s max_rss=%dMB\n", strings.Join(r.timeline, " "), ru.Maxrss>>10)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Println(r.accounting())
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// accounting is the run's one-line record: seed, cores, and attempted
// and failed counts per operation.
func (r *run) accounting() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: workload=%s seed=%d trace=%v gomaxprocs=%d num_cpu=%d timed_s=%.3f",
		r.wl.name, r.seed, r.tr != nil, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.elapsed.Seconds())
	for _, k := range []string{"query", "update", "reopen"} {
		c := r.ops[k]
		if c == nil {
			c = &opCount{}
		}
		fmt.Fprintf(&b, " %s=%d/%d", k, c.attempted, c.failed)
	}
	fmt.Fprintf(&b, " wrong=%d samples=%d", r.wrong, r.queryLat.len())
	if l := r.lateness.values(); len(l) > 0 {
		fmt.Fprintf(&b, " lateness_p50_ms=%.3f lateness_p99_ms=%.3f", quantile(l, 0.5), quantile(l, 0.99))
	}
	return b.String()
}

// p99Samples is the fewest samples a p99 is reported from.
const p99Samples = 1000

// result assembles the printed object: the end-to-end metrics on an
// untraced run, the per-layer metrics on a traced one.
func (r *run) result() result {
	// A rejected answer is a failed operation, and it also makes the run
	// incorrect: a wrong route must not pass as a slow one.
	res := result{Correct: r.wrong == 0, Failed: r.wrong, Metrics: make(map[string]metric)}
	for _, c := range r.ops {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer this run did not reach
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	qps := float64(r.completed.Load()) / r.elapsed.Seconds()
	if r.tr == nil {
		put("setup_s", r.setupS, "s")
		put("open_to_first_answer_ms", median(r.openMs.values()), "ms")
		put("queries_per_s", qps, "1/s")
		put("query_p50_ms", median(r.queryLat.values()), "ms")
		put("updates_per_s", float64(r.mutations)/r.updElapsed.Seconds(), "1/s")
		put("apply_p50_ms", median(r.applyLat.values()), "ms")
		put("heap_live_mb", r.heapMB, "MB")
		return res
	}

	e := r.e
	put("gen.graph_s", e.phases["gen.graph"], "s")
	put("label.build_s", e.phases["label.build"], "s")
	put("label.entries", float64(e.labelEntries), "count")
	put("invindex.build_s", e.phases["invindex.build"], "s")
	put("flat.write_s", e.phases["flat.write"], "s")
	put("flat.open_ms", e.phases["flat.open"]*1e3, "ms")
	put("flat.file_mb", e.fileMB, "MB")

	put("core.examined_per_query", ratio(r.examined, r.answered), "count")
	put("core.nn_queries_per_query", ratio(r.nnq, r.answered), "count")
	put("core.results_per_examined", ratio(r.results, r.examined), "ratio")
	put("core.generated_per_query", mean(r.generated.values()), "count")
	put("core.dominated_per_query", mean(r.dominated.values()), "count")
	put("core.peak_queue", mean(r.peak.values()), "count")
	put("core.alloc_bytes_per_query", mean(r.allocB.values()), "B")
	put("core.allocs_per_query", mean(r.allocN.values()), "count")
	for _, m := range methods {
		put("core."+m.name+"_p50_ms", median(r.doLat[m.name].values()), "ms")
	}
	put("core.nn_ms", mean(r.nn.values()), "ms")
	put("core.pq_ms", mean(r.pq.values()), "ms")
	put("core.est_ms", mean(r.est.values()), "ms")
	put("core.unattributed_ms", mean(r.unattr.values()), "ms")

	put("server.handler_p50_ms", median(r.handler.values()), "ms")
	put("server.overhead_p50_ms", median(r.overhead.values()), "ms")
	h, err := e.health()
	var sheds uint64
	if err == nil {
		for _, s := range h.Sheds {
			sheds += s.QueueFull + s.DeadlineUnmeetable + s.DeadlineExpired
		}
	}
	put("server.sheds", float64(sheds), "count")

	hits, misses := float64(r.hits1-r.hits0), float64(r.misses1-r.misses0)
	put("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cache.coalesced", float64(r.coal1-r.coal0), "count")
	put("cache.hit_p50_ms", median(r.hitLat.values()), "ms")
	put("cache.miss_p50_ms", median(r.missLat.values()), "ms")
	put("cache.stale_entries", float64(r.staleEntr), "count")

	a0, a1 := r.apply0, r.apply1
	updates := float64(a1.Updates - a0.Updates)
	repairs := float64(a1.HubRepairs - a0.HubRepairs)
	put("label.hub_repairs_per_update", ratio(repairs, updates), "count")
	put("label.seeds_skipped_ratio", ratio(float64(a1.SeedsSkipped-a0.SeedsSkipped), float64(a1.RepairSeeds-a0.RepairSeeds)), "ratio")
	put("label.repair_reruns_per_repair", ratio(float64(a1.RepairReruns-a0.RepairReruns), repairs), "ratio")
	put("pagevec.pages_copied_per_update", ratio(float64(a1.PagesCopied-a0.PagesCopied), updates), "count")
	put("pagevec.apply_bytes_per_update", ratio(float64(a1.ApplyBytes-a0.ApplyBytes), updates), "B")
	put("pagevec.owned_pages", float64(r.ownedPages), "count")
	put("kosr.epochs", float64(a1.Batches-a0.Batches), "count")
	put("kosr.scratch_carryover", float64(a1.ScratchCarryover-a0.ScratchCarryover), "count")
	put("kosr.scratch_forwarded", float64(a1.ScratchForwarded-a0.ScratchForwarded), "count")

	if lat := r.queryLat.values(); len(lat) >= p99Samples {
		put("client.query_p99_ms", quantile(lat, 0.99), "ms")
	}
	l := r.lateness.values()
	put("client.lateness_p50_ms", quantile(l, 0.5), "ms")
	put("client.lateness_p99_ms", quantile(l, 0.99), "ms")
	put("runtime.heap_pooled_mb", r.heapPooledMB, "MB")
	put("runtime.pool_pinned_mb", r.heapPooledMB-r.heapMB, "MB")
	put("runtime.gc_cycles", float64(r.gcCycles), "count")
	put("runtime.gc_pause_ms", r.gcPauseMs, "ms")
	put("trace.queries_per_s", qps, "1/s")
	put("trace.spans", float64(r.tr.count()), "count")
	return res
}
