package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The four workloads. Each stresses different layers; see README.md for
// the layer each per-layer metric belongs to and the workload it should
// move.
var workloads = []*workload{
	{
		name: "serve-unique",
		spec: serveGraph, mix: paperMix, epilogue: 256,
		warm:  func(r *run) { closedLoop(r, warmQueries, time.Time{}) },
		timed: func(r *run, deadline time.Time) { closedLoop(r, -1, deadline) },
	},
	{
		name: "serve-cached",
		spec: serveGraph, mix: paperMix, epilogue: 256,
		warm:  func(r *run) { cachedLoop(r, cachedWarm, time.Time{}) },
		timed: func(r *run, deadline time.Time) { cachedLoop(r, -1, deadline) },
	},
	{
		name: "live-updates",
		spec: serveGraph, mix: liveMix, updates: true,
		warm:  func(r *run) { closedLoop(r, warmQueries, time.Time{}) },
		timed: liveLoop,
	},
	{
		name: "engine-methods",
		spec: engineGraph, mix: engineMix, epilogue: 6144,
		warm:  func(r *run) { engineLoop(r, warmQueries, time.Time{}) },
		timed: func(r *run, deadline time.Time) { engineLoop(r, -1, deadline) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clients runs fn on one goroutine per client and waits for all.
func clients(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// loopClients is the closed-loop client count: two, one per P of the
// 2-core reference machine, and never more than GOMAXPROCS. The
// transport caps connections at GOMAXPROCS too.
func loopClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// closedLoop runs loopClients clients posting single distinct queries,
// each sending the next when the previous answer arrived: count requests
// per client, or until deadline when count < 0.
func closedLoop(r *run, count int, deadline time.Time) {
	clients(loopClients(), func(int) {
		for n := 0; count < 0 && time.Now().Before(deadline) || n < count; n++ {
			qi, _ := r.qs.next()
			rep, err := r.serve([]int{qi}, "", r.keepAll)
			if count < 0 && err == nil {
				r.queryLat.add(rep.latencyMs)
				r.completed.Add(1)
			}
		}
	})
}

// cachedLoop runs loopClients closed-loop clients posting 8-query
// batches drawn Zipf-skewed from a fixed pool of distinct queries. Every answer to a
// pool query must repeat its first answer exactly; first answers get the
// full oracle check.
func cachedLoop(r *run, count int, deadline time.Time) {
	if r.zipf == nil {
		r.qs.skip(cachedPool)
		r.rec.keepFirsts(cachedPool)
		for i := 0; i < loopClients(); i++ {
			r.zipf = append(r.zipf, rand.NewZipf(rand.New(rand.NewSource(r.seed*31+int64(i))), cachedZipfS, 1, cachedPool-1))
		}
	}
	keep := func(qi int, _ uint64, rs []route) {
		if err := r.rec.addFirst(qi, len(r.qs.at(qi).cats)+2, rs); err != nil {
			r.mismatch(err)
		}
	}
	clients(loopClients(), func(i int) {
		z := r.zipf[i]
		for n := 0; count < 0 && time.Now().Before(deadline) || n < count; n++ {
			idx := make([]int, cachedBatch)
			for j := range idx {
				idx[j] = int(z.Uint64())
			}
			rep, err := r.serve(idx, "", keep)
			if count < 0 && err == nil {
				r.queryLat.add(rep.latencyMs)
				r.completed.Add(cachedBatch)
			}
		}
	})
}

// liveLoop posts update batches back to back on one client while the
// other sends distinct queries open-loop at liveRate. A query's latency
// runs from the time it was due, so a stall also charges the queries it
// delayed; the lateness of each send is recorded too.
func liveLoop(r *run, deadline time.Time) {
	ug := newUpdateGen(r.e.g)
	start := time.Now()
	clients(2, func(i int) {
		if i == 0 {
			for time.Now().Before(deadline) {
				r.update(ug)
			}
			return
		}
		interval := time.Second / liveRate
		for n := 0; ; n++ {
			due := start.Add(time.Duration(n) * interval)
			if !due.Before(deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r.lateness.add(ms(time.Since(due)))
			qi, _ := r.qs.next()
			_, err := r.serve([]int{qi}, "", func(qi int, epoch uint64, rs []route) {
				r.rec.add(qi, epoch, len(r.qs.at(qi).cats)+2, rs, qi%liveSampleStep == 0)
			})
			if err == nil {
				r.queryLat.add(ms(time.Since(due)))
				r.completed.Add(1)
			}
		}
	})
}

// engineLoop answers seeded queries in-process with all four methods on
// one client: count queries, or until deadline when count < 0.
func engineLoop(r *run, count int, deadline time.Time) {
	for n := 0; count < 0 && time.Now().Before(deadline) || n < count; n++ {
		qi, q := r.qs.next()
		rs, d, err := r.engineQuery(r.e.sys, q)
		r.op("query", err)
		if err != nil {
			continue
		}
		r.keepAll(qi, 1, rs)
		if count < 0 {
			r.queryLat.add(ms(d))
			r.completed.Add(1)
		}
	}
}
