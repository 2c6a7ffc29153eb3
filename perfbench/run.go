package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	kosr "repro"
	"repro/internal/server"
)

// Run make-up outside the timed phase: counts, not durations, so that
// every run repeats the same operations there.
const (
	setupRepeats   = 3   // set-ups per run; setup_s is their median
	reopens        = 5   // OpenFlatSystem → first answer, per round; five rounds per run
	finalChecks    = 16  // queries checked at the final epoch
	probeQueries   = 16  // layer probe: queries per part
	liveRate       = 120 // live-updates open-loop queries per second
	liveSampleStep = 16  // live-updates: every 16th answer gets the full check
	deepStep       = 16  // every 16th checked answer also gets the layered and brute-force checks
	cachedPool     = 16384
	cachedBatch    = 8
	cachedZipfS    = 1.1
	cachedWarm     = 128 // warm-up batches per serve-cached client
	warmQueries    = 16  // warm-up requests per client elsewhere
)

// method is one engine configuration of engine-methods.
type method struct {
	name string
	span string // the span of one Do call
	m    kosr.Method
	dij  bool
}

var methods = []method{
	{"kpne", "do.kpne", kosr.KPNE, false},
	{"pk", "do.pk", kosr.PruningKOSR, false},
	{"sk", "do.sk", kosr.StarKOSR, false},
	{"sk_dij", "do.sk_dij", kosr.StarKOSR, true},
}

type opCount struct{ attempted, failed int }

// run is one benchmark run of one workload: its inputs, its accounting
// and every sample it takes.
type run struct {
	wl   *workload
	seed int64
	dur  time.Duration
	root string
	tr   *tracer // nil on untraced runs

	e    *env
	orc  *oracle
	qs   *stream
	rec  recorder
	zipf []*rand.Zipf // serve-cached: one seeded draw per client

	mu    sync.Mutex
	ops   map[string]*opCount
	wrong int // answers the checks rejected; each also counts as failed
	notes []string

	begin    time.Time
	timeline []string // phase ends, seconds into the run

	setupS       float64
	elapsed      time.Duration
	completed    atomic.Int64
	queryLat     samples
	lateness     samples
	heapMB       float64 // live heap after two forced collections
	heapPooledMB float64 // after one: sync.Pool victims still reachable
	gcCycles     uint32
	gcPauseMs    float64
	openMs       samples

	applyLat   samples
	mutations  int
	updElapsed time.Duration
	apply0     kosr.ApplyStats
	apply1     kosr.ApplyStats
	ownedPages int
	staleEntr  int

	hits0, misses0, coal0 int64
	hits1, misses1, coal1 int64

	handler, overhead, hitLat, missLat samples
	answered, examined, nnq, results   float64 // from computed answers
	doLat                              map[string]*samples
	nn, pq, est, unattr                samples
	generated, dominated, peak         samples
	allocB, allocN                     samples
}

// workload is one traffic mix.
type workload struct {
	name    string
	spec    graphSpec
	mix     mix
	updates bool // the timed phase posts updates
	// epilogue is the number of update batches posted after the timed
	// phase on workloads whose timed phase posts none: about three
	// seconds of them in all, so that their figures are not one short
	// stretch of a shared machine.
	epilogue int
	warm     func(r *run)
	timed    func(r *run, deadline time.Time)
}

func newRun(wl *workload, seed int64, dur time.Duration, root string, traced bool) *run {
	r := &run{wl: wl, seed: seed, dur: dur, root: root, ops: make(map[string]*opCount), doLat: make(map[string]*samples)}
	for _, m := range methods {
		r.doLat[m.name] = &samples{}
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		r.noteLocked(fmt.Sprintf("%s failed: %v", kind, err))
	}
}

// mark notes the end of a phase of the run.
func (r *run) mark(phase string) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r.timeline = append(r.timeline, fmt.Sprintf("%s=%.1fs/%dMB", phase, time.Since(r.begin).Seconds(), ru.Maxrss>>10))
}

// mismatch records an answer the checks rejected.
func (r *run) mismatch(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	r.noteLocked("wrong answer: " + err.Error())
}

func (r *run) noteLocked(s string) {
	if len(r.notes) < 10 {
		r.notes = append(r.notes, s)
	}
}

// queryErr classifies one answered query: an error, a shed or a
// truncated answer is a failed operation.
func queryErr(res server.QueryResult) error {
	switch {
	case res.Shed:
		return fmt.Errorf("shed: %s", res.Error)
	case res.Error != "":
		return fmt.Errorf("%s", res.Error)
	case res.Truncated:
		return fmt.Errorf("truncated")
	}
	return nil
}

// serve posts one batch of logged queries, accounts every query in it,
// records the per-layer samples, and hands each good answer to keep.
func (r *run) serve(idx []int, parent string, keep func(qi int, epoch uint64, rs []route)) (reply, error) {
	qs := make([]query, len(idx))
	for i, qi := range idx {
		qs[i] = r.qs.at(qi)
	}
	id := r.tr.newID()
	start := time.Now()
	rep, err := r.e.postQueries(qs)
	r.tr.record(id, parent, "http.query", start, time.Now())
	if err != nil {
		for range qs {
			r.op("query", err)
		}
		return rep, err
	}
	computed := rep.hits == 0
	for i, res := range rep.results {
		qerr := queryErr(res)
		r.op("query", qerr)
		if qerr != nil {
			continue
		}
		if computed {
			r.mu.Lock()
			r.answered++
			r.examined += float64(res.Examined)
			r.nnq += float64(res.NNQueries)
			r.results += float64(len(res.Routes))
			r.mu.Unlock()
		}
		keep(idx[i], rep.epoch, toRoutes(res.Routes))
	}
	r.handler.add(rep.handlerMs)
	r.overhead.add(rep.latencyMs - rep.handlerMs)
	if rep.misses == 0 {
		r.hitLat.add(rep.latencyMs)
	} else {
		r.missLat.add(rep.latencyMs)
	}
	return rep, nil
}

// keepAll records every answer for the full oracle check.
func (r *run) keepAll(qi int, epoch uint64, rs []route) {
	r.rec.add(qi, epoch, len(r.qs.at(qi).cats)+2, rs, true)
}

// do answers q in-process with one method. On a traced run it turns on
// the engine's time breakdown, takes MemStats deltas around the call
// and records the per-layer samples.
func (r *run) do(sys *kosr.System, q query, m method, id uint64) (*kosr.Result, error) {
	req := kosr.Request{Source: q.src, Target: q.dst, Categories: q.cats, K: q.k,
		Method: m.m, UseDijkstraNN: m.dij, MaxExamined: maxExamined, TimeBreakdown: r.tr != nil}
	var m0, m1 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	res, err := sys.Do(context.Background(), req)
	end := time.Now()
	d := end.Sub(start)
	if err == nil && res.Truncated {
		err = fmt.Errorf("%s truncated", m.name)
	}
	if r.tr == nil || err != nil {
		return res, err
	}
	runtime.ReadMemStats(&m1)
	r.tr.record(id, "engine.query", m.span, start, end)
	st := res.Stats
	r.doLat[m.name].add(ms(d))
	r.nn.add(ms(st.NNTime))
	r.pq.add(ms(st.PQTime))
	r.est.add(ms(st.EstTime))
	r.unattr.add(ms(d - st.NNTime - st.PQTime - st.EstTime))
	r.generated.add(float64(st.Generated))
	r.dominated.add(float64(st.Dominated))
	r.peak.add(float64(st.PeakQueue))
	r.allocB.add(float64(m1.TotalAlloc - m0.TotalAlloc))
	r.allocN.add(float64(m1.Mallocs - m0.Mallocs))
	r.mu.Lock()
	r.answered++
	r.examined += float64(st.Examined)
	r.nnq += float64(st.NNQueries)
	r.results += float64(len(res.Routes))
	r.mu.Unlock()
	return res, nil
}

// engineQuery answers q with all four methods and checks that their
// cost lists agree. It returns the StarKOSR routes.
func (r *run) engineQuery(sys *kosr.System, q query) ([]route, time.Duration, error) {
	id := r.tr.newID()
	start := time.Now()
	var sk []route
	var costs [][]float64
	for _, m := range methods {
		res, err := r.do(sys, q, m, id)
		if err != nil {
			return nil, 0, err
		}
		rs := engineRoutes(res.Routes)
		if m.name == "sk" {
			sk = rs
		}
		c := make([]float64, len(rs))
		for i, x := range rs {
			c[i] = x.cost
		}
		costs = append(costs, c)
	}
	d := time.Since(start)
	r.tr.record(id, "", "engine.query", start, start.Add(d))
	for i := 1; i < len(costs); i++ {
		if !sameCosts(costs[0], costs[i]) {
			r.mismatch(fmt.Errorf("%s costs %v, %s costs %v", methods[0].name, costs[0], methods[i].name, costs[i]))
			break
		}
	}
	return sk, d, nil
}

func sameCosts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameCost(a[i], b[i]) {
			return false
		}
	}
	return true
}

// updates posts one update batch and logs it for the oracle.
func (r *run) update(ug *updateGen) {
	ups := ug.next()
	id := r.tr.newID()
	start := time.Now()
	epoch, lat, err := r.e.postUpdates(ups)
	r.tr.record(id, "", "http.update", start, time.Now())
	r.op("update", err)
	if err != nil {
		return
	}
	r.applyLat.add(ms(lat))
	r.mu.Lock()
	r.mutations += len(ups)
	r.orc.logBatch(epoch, ups)
	r.mu.Unlock()
}

// execute runs every phase of the run in order.
func (r *run) execute() error {
	r.begin = time.Now()
	if err := selfTest(); err != nil {
		r.mismatch(err)
	}
	e, setupS, err := setupMedian(r.root, r.wl.spec, setupRepeats, r.tr)
	if err != nil {
		return err
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintln(os.Stderr, "teardown:", err)
		}
	}()
	r.e, r.setupS = e, setupS
	r.orc = newOracle(e.g)
	r.qs = newStream(e.g, r.wl.mix, engineMix, r.seed+1)
	r.mark("setup")

	// Short measurements are split into rounds spread over the run, so
	// that no single stretch of a shared machine's speed decides them.
	r.reopen()
	r.wl.warm(r)
	r.reopen()
	r.mark("warm")
	r.hits0, r.misses0, r.coal0, _ = e.srv.CacheStats()
	r.apply0 = e.sys.ApplyStats()
	// Each measured phase starts with the garbage of the phase before it
	// collected, so that collection does not land inside the measurement.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	r.wl.timed(r, start.Add(r.dur))
	r.elapsed = time.Since(start)
	r.mark("timed")
	r.hits1, r.misses1, r.coal1, _ = e.srv.CacheStats()
	if r.wl.updates {
		r.updElapsed = r.elapsed
		r.afterUpdates()
	}
	// A forced collection closes the timed phase, so every run has at
	// least one GC pause. The oracle's views go first: they are the
	// benchmark's memory, and reopen rebuilds them. The live heap is read
	// after that collection and again after a second one. The first
	// reading still holds sync.Pool's victim cache, so it includes the
	// superseded snapshots that pooled scratches pin; how much they pin
	// at that instant depends on timing and swings by 2x from run to
	// run. The second reading, with the pools emptied, is the steady one
	// heap_live_mb reports.
	r.orc.drop()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.heapPooledMB = r.liveHeapMB()
	runtime.GC()
	r.heapMB = r.liveHeapMB()
	r.mark("heap")

	r.reopen()
	if r.wl.updates {
		r.verify()
	} else {
		ug := newUpdateGen(e.g)
		r.epilogue(ug, r.wl.epilogue/2)
		r.mark("epilogue")
		r.verify()
		r.mark("verify")
		r.epilogue(ug, r.wl.epilogue/2)
		r.afterUpdates()
	}
	r.mark("check")
	r.reopen()
	r.finalCheck()
	if r.tr != nil {
		if err := r.probe(); err != nil {
			return err
		}
	}
	r.reopen()
	r.mark("end")
	if r.tr != nil {
		path := fmt.Sprintf("%s/trace-%s-%d.json", r.root, r.wl.name, r.seed)
		if err := r.tr.writeFile(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

// liveHeapMB is the heap the last collection marked live, less the
// benchmark's own structures that grow with the work a run completes:
// the answer log, the samples, the oracle's update log and the spans.
// What is left is the program's heap and the benchmark's fixed-size
// state, so a faster program does not read as a larger one.
func (r *run) liveHeapMB() float64 {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	own := r.rec.bytes() + r.orc.bytes() + r.tr.bytes()
	for _, s := range r.allSamples() {
		own += s.bytes()
	}
	return float64(int64(live[0].Value.Uint64())-int64(own)) / (1 << 20)
}

// allSamples lists every sample set of the run.
func (r *run) allSamples() []*samples {
	all := []*samples{&r.queryLat, &r.lateness, &r.openMs, &r.applyLat,
		&r.handler, &r.overhead, &r.hitLat, &r.missLat,
		&r.nn, &r.pq, &r.est, &r.unattr, &r.generated, &r.dominated, &r.peak, &r.allocB, &r.allocN}
	for _, m := range methods {
		all = append(all, r.doLat[m.name])
	}
	return all
}

// epilogue posts n update batches back to back, for the workloads
// whose timed phase posts none.
func (r *run) epilogue(ug *updateGen, n int) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.update(ug)
	}
	r.updElapsed += time.Since(start)
}

// afterUpdates reads the update-path counters once the update phase is
// over.
func (r *run) afterUpdates() {
	r.apply1 = r.e.sys.ApplyStats()
	_, r.ownedPages = r.e.sys.Snapshot().PageResidency()
	h, err := r.e.health()
	if err != nil {
		r.mu.Lock()
		r.noteLocked("health: " + err.Error())
		r.mu.Unlock()
		return
	}
	if h.Cache != nil {
		r.staleEntr = h.Cache.Stale
	}
}

// verify checks every recorded answer against the oracle at the epoch it
// was answered on, then drops the log and the oracle's distance rows.
func (r *run) verify() {
	checked := 0
	var epoch uint32
	for _, a := range r.rec.recs {
		if a.epoch != epoch {
			// Answers arrive in epoch order; one view at a time bounds
			// the oracle's memory.
			r.orc.drop()
			epoch = a.epoch
		}
		q := r.qs.at(int(a.q))
		v := r.orc.at(uint64(a.epoch))
		rs := r.rec.routes(a)
		var err error
		if a.sample {
			err = v.check(q, rs, checked%deepStep == 0)
			checked++
		} else {
			err = v.checkShape(q, rs)
		}
		if err != nil {
			r.mismatch(fmt.Errorf("query %d at epoch %d: %w", a.q, a.epoch, err))
		}
	}
	r.rec.reset()
	r.orc.drop()
}

// finalCheck answers fresh queries after the last update and checks
// them in full at the final epoch.
func (r *run) finalCheck() {
	final := r.orc.finalEpoch()
	for i := 0; i < finalChecks; i++ {
		qi, _ := r.qs.next()
		// A failed request is counted by serve.
		r.serve([]int{qi}, "", func(qi int, epoch uint64, rs []route) {
			if epoch != final {
				r.mismatch(fmt.Errorf("final check answered at epoch %d, want %d", epoch, final))
				return
			}
			if err := r.orc.at(epoch).check(r.qs.at(qi), rs, i == 0); err != nil {
				r.mismatch(fmt.Errorf("final check, query %d: %w", qi, err))
			}
		})
	}
}

// reopen runs one round of reopenings: it maps the packed index afresh
// and times it to the first answer, checked against the epoch-1 oracle.
// The query is the same on every seed: corner to corner through the
// first three categories, k = 10.
func (r *run) reopen() {
	n := r.e.g.NumVertices()
	q := query{src: 0, dst: kosr.Vertex(n - 1), cats: []kosr.Category{0, 1, 2}, k: 10}
	v := r.orc.at(1)
	v.optimum(q) // computes every distance row the checks below read
	runtime.GC()
	for i := 0; i < reopens; i++ {
		id := r.tr.newID()
		start := time.Now()
		sys, err := kosr.OpenFlatSystem(r.e.g, r.e.flatPath)
		if err != nil {
			r.op("reopen", err)
			continue
		}
		opened := time.Now()
		res, err := sys.Do(context.Background(), kosr.Request{Source: q.src, Target: q.dst,
			Categories: q.cats, K: q.k, MaxExamined: maxExamined})
		end := time.Now()
		if err == nil && res.Truncated {
			err = fmt.Errorf("first answer truncated")
		}
		if cerr := sys.Close(); err == nil {
			err = cerr
		}
		r.tr.record(id, "reopen", "reopen.open", start, opened)
		r.tr.record(id, "reopen", "reopen.first_answer", opened, end)
		r.tr.record(id, "", "reopen", start, end)
		r.op("reopen", err)
		if err != nil {
			continue
		}
		r.openMs.add(ms(end.Sub(start)))
		if err := v.check(q, engineRoutes(res.Routes), false); err != nil {
			r.mismatch(fmt.Errorf("reopen: %w", err))
		}
	}
}

// probe runs on traced runs only, after the workload, so that layers the
// workload's own traffic skips still report measured values: the
// workload's first queries replayed in-process with StarKOSR, small
// queries answered by all four methods, and those small queries posted
// twice (a miss, then a hit). The in-process parts run on a freshly
// mapped epoch-1 system, since Dijkstra kNN ignores dynamic updates.
func (r *run) probe() error {
	sys, err := kosr.OpenFlatSystem(r.e.g, r.e.flatPath)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer sys.Close()
	sys.Prewarm(runtime.GOMAXPROCS(0))
	v1 := r.orc.at(1)
	sk := methods[2]
	for i := 0; i < probeQueries; i++ {
		q := r.qs.at(i)
		res, err := r.do(sys, q, sk, r.tr.newID())
		r.op("query", err)
		if err == nil {
			if err := v1.check(q, engineRoutes(res.Routes), false); err != nil {
				r.mismatch(fmt.Errorf("probe replay: %w", err))
			}
		}
	}
	var idx []int
	for i := 0; i < probeQueries; i++ {
		qi, q := r.qs.nextSide()
		idx = append(idx, qi)
		rs, _, err := r.engineQuery(sys, q)
		r.op("query", err)
		if err == nil {
			if err := v1.check(q, rs, i == 0); err != nil {
				r.mismatch(fmt.Errorf("probe methods: %w", err))
			}
		}
	}
	final := r.orc.at(r.orc.finalEpoch())
	for pass := 0; pass < 2; pass++ {
		for _, qi := range idx {
			r.serve([]int{qi}, "probe", func(qi int, _ uint64, rs []route) {
				if err := final.check(r.qs.at(qi), rs, false); err != nil {
					r.mismatch(fmt.Errorf("probe http: %w", err))
				}
			})
		}
	}
	return nil
}
