package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	kosr "repro"
	"repro/internal/flat"
	"repro/internal/gen"
	"repro/internal/invindex"
	"repro/internal/label"
	"repro/internal/server"
)

// graphSpec builds one generated road network. The graphs are fixed:
// --seed drives the requests, not the map, so that runs on different
// seeds measure the same system.
type graphSpec func() (*kosr.Graph, error)

// The served workloads share the CAL analogue exactly as kosrbench
// builds it (seed 42): a 64×64 undirected grid with diagonals and 63
// categories of 40 vertices. The directed COL analogue costs 9 s per
// set-up and over two minutes per run, more than the 92 runs of a
// comparison can afford. engine-methods uses a small undirected grid on
// which KPNE and PruningKOSR finish well within the examined budget.
var (
	serveGraph graphSpec = func() (*kosr.Graph, error) {
		return gen.BuildAnalogue(gen.CAL, gen.AnalogueOptions{Seed: 42})
	}
	engineGraph graphSpec = func() (*kosr.Graph, error) {
		const side = 24
		b := gen.GridBuilder(gen.GridOptions{Rows: side, Cols: side, MaxWeight: 10, Diagonals: true, Seed: 18})
		gen.AssignUniformCategories(b, side*side, 24, side*side/20, 18+7)
		return b.Build()
	}
)

// The serving configuration: kosrd's defaults.
const (
	cacheEntries = 4096
	maxExamined  = 5_000_000
	queryTimeout = 10 * time.Second
)

// env is one fully set-up system: the generated graph, the packed and
// mapped flat index, and a warm server listening on localhost.
type env struct {
	g        *kosr.Graph
	sys      *kosr.System
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	url      string
	dir      string
	flatPath string
	client   *http.Client

	phases       map[string]float64 // seconds per setup phase
	total        float64            // seconds, whole setup
	labelEntries int64
	fileMB       float64
}

// setup builds the system from scratch under root: generate the graph,
// build labels and the inverted index, pack and map a KOSRFLT1 flat
// index, prewarm one scratch per P, and start the server. Every phase is
// timed and, on a traced run, recorded as a span.
func setup(root string, spec graphSpec, tr *tracer) (*env, error) {
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	e := &env{dir: dir, flatPath: filepath.Join(dir, "index.flat"), phases: make(map[string]float64)}
	id := tr.newID()
	begin := time.Now()
	last := begin
	phase := func(name string) {
		now := time.Now()
		e.phases[name] = now.Sub(last).Seconds()
		tr.record(id, "setup", "setup."+name, last, now)
		last = now
	}

	if e.g, err = spec(); err != nil {
		e.close()
		return nil, fmt.Errorf("setup: generate graph: %w", err)
	}
	phase("gen.graph")
	lab := label.Build(e.g)
	phase("label.build")
	inv := invindex.Build(e.g, lab)
	phase("invindex.build")
	e.labelEntries = lab.Stats().Entries
	if err := flat.WriteFile(e.flatPath, lab, inv); err != nil {
		e.close()
		return nil, fmt.Errorf("setup: pack flat index: %w", err)
	}
	phase("flat.write")
	if e.sys, err = kosr.OpenFlatSystem(e.g, e.flatPath); err != nil {
		e.close()
		return nil, fmt.Errorf("setup: open flat index: %w", err)
	}
	phase("flat.open")
	e.sys.Prewarm(runtime.GOMAXPROCS(0))
	phase("prewarm")
	if err := e.serve(); err != nil {
		e.close()
		return nil, err
	}
	phase("server.start")
	e.total = time.Since(begin).Seconds()
	tr.record(id, "", "setup", begin, time.Now())
	if st, err := os.Stat(e.flatPath); err == nil {
		e.fileMB = float64(st.Size()) / (1 << 20)
	}
	return e, nil
}

// serve starts the server on a localhost port and waits for /health.
func (e *env) serve() error {
	e.srv = server.NewWithConfig(e.sys, server.Config{
		MaxExamined:  maxExamined,
		QueryTimeout: queryTimeout,
		CacheSize:    cacheEntries,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("setup: listen: %w", err)
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{
		Handler:           e.srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      queryTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// Clients never exceed GOMAXPROCS goroutines; the transport caps
	// connections at the same number.
	p := runtime.GOMAXPROCS(0)
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: p, MaxIdleConnsPerHost: p, DisableCompression: true,
	}}
	resp, err := e.client.Get(e.url + "/health")
	if err != nil {
		return fmt.Errorf("setup: health: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("setup: health answered %d", resp.StatusCode)
	}
	return nil
}

// close stops the server, waits for it and its workers, unmaps the
// index and removes the run directory.
func (e *env) close() error {
	var errs []error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.hs.Shutdown(ctx))
		cancel()
		<-e.served
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.sys != nil {
		errs = append(errs, e.sys.Close())
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// setupMedian sets the system up `times` times, keeps the last one and
// returns it with the median setup time.
func setupMedian(root string, spec graphSpec, times int, tr *tracer) (*env, float64, error) {
	var totals []float64
	var e *env
	for i := 0; i < times; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		var err error
		if e, err = setup(root, spec, tr); err != nil {
			return nil, 0, err
		}
		totals = append(totals, e.total)
	}
	return e, median(totals), nil
}
