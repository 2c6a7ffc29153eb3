package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	kosr "repro"
	"repro/internal/server"
)

// reply is one /v1/query response as the client saw it.
type reply struct {
	epoch     uint64
	hits      int
	misses    int
	handlerMs float64 // X-Query-Millis: time inside the handler
	latencyMs float64 // client-observed, request written to body read
	results   []server.QueryResult
}

// wireQuery renders q as the server's wire form, method SK.
func wireQuery(q query) server.QueryRequest {
	cats := make([]string, len(q.cats))
	for i, c := range q.cats {
		cats[i] = strconv.Itoa(int(c))
	}
	return server.QueryRequest{
		Source: strconv.Itoa(int(q.src)), Target: strconv.Itoa(int(q.dst)),
		Categories: cats, K: q.k, Method: "SK",
	}
}

// post sends body as JSON to path and decodes a 200 answer into out.
func (e *env) post(path string, body any, out any) (http.Header, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("%s answered %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.Header, lat, json.Unmarshal(data, out)
}

// postQueries posts one /v1/query batch.
func (e *env) postQueries(qs []query) (reply, error) {
	req := server.BatchRequest{Queries: make([]server.QueryRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = wireQuery(q)
	}
	var out struct {
		Results []server.QueryResult `json:"results"`
	}
	hdr, lat, err := e.post("/v1/query", req, &out)
	r := reply{latencyMs: ms(lat), results: out.Results}
	if err != nil {
		return r, err
	}
	if len(out.Results) != len(qs) {
		return r, fmt.Errorf("/v1/query: %d results for %d queries", len(out.Results), len(qs))
	}
	r.epoch, err = strconv.ParseUint(hdr.Get("X-Index-Epoch"), 10, 64)
	if err != nil {
		return r, fmt.Errorf("/v1/query: X-Index-Epoch: %w", err)
	}
	if r.handlerMs, err = strconv.ParseFloat(hdr.Get("X-Query-Millis"), 64); err != nil {
		return r, fmt.Errorf("/v1/query: X-Query-Millis: %w", err)
	}
	if _, err := fmt.Sscanf(hdr.Get("X-Cache"), "hits=%d misses=%d", &r.hits, &r.misses); err != nil {
		return r, fmt.Errorf("/v1/query: X-Cache %q: %w", hdr.Get("X-Cache"), err)
	}
	return r, nil
}

// postUpdates posts one /v1/admin/update batch and returns the epoch it
// published.
func (e *env) postUpdates(ups []kosr.Update) (uint64, time.Duration, error) {
	req := server.AdminUpdateRequest{Updates: make([]server.UpdateJSON, len(ups))}
	for i, u := range ups {
		w := server.UpdateJSON{Op: string(u.Op)}
		if u.Op == kosr.OpInsertEdge {
			w.From, w.To, w.Weight = strconv.Itoa(int(u.From)), strconv.Itoa(int(u.To)), float64(u.Weight)
		} else {
			w.Vertex, w.Category = strconv.Itoa(int(u.Vertex)), strconv.Itoa(int(u.Category))
		}
		req.Updates[i] = w
	}
	var out server.AdminUpdateResponse
	_, lat, err := e.post("/v1/admin/update", req, &out)
	if err == nil && out.Applied != len(ups) {
		err = fmt.Errorf("/v1/admin/update applied %d of %d", out.Applied, len(ups))
	}
	return out.Epoch, lat, err
}

// health reads /health.
func (e *env) health() (server.HealthResponse, error) {
	var h server.HealthResponse
	resp, err := e.client.Get(e.url + "/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/health answered %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recorder keeps every answer of the timed phase in flat arenas until it
// is verified, so the client's log costs few heap objects and its size
// is known exactly (see bytes).
type recorder struct {
	mu    sync.Mutex
	recs  []answer
	verts []int32
	costs []float64
	first []int32 // query → its first answer's record, -1 if none; for addFirst
}

// answer locates one query's routes in the arenas.
type answer struct {
	q      int32 // index into the workload's query log
	epoch  uint32
	off    int32 // first route's cost in costs
	n      int32 // routes
	voff   int32 // first witness vertex in verts
	wlen   int32 // witness length
	sample bool  // full oracle check (otherwise shape only)
}

func (rc *recorder) add(qi int, epoch uint64, wlen int, rs []route, sample bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.addLocked(qi, epoch, wlen, rs, sample)
}

func (rc *recorder) addLocked(qi int, epoch uint64, wlen int, rs []route, sample bool) {
	a := answer{q: int32(qi), epoch: uint32(epoch), off: int32(len(rc.costs)), n: int32(len(rs)),
		voff: int32(len(rc.verts)), wlen: int32(wlen), sample: sample}
	for _, r := range rs {
		rc.costs = append(rc.costs, r.cost)
		w := r.witness
		if len(w) != wlen { // keep the arena aligned; the check reports the length
			w = make([]int32, wlen)
			for i := range w {
				w[i] = -1
			}
		}
		rc.verts = append(rc.verts, w...)
	}
	rc.recs = append(rc.recs, a)
}

// keepFirsts prepares addFirst for queries 0…n-1.
func (rc *recorder) keepFirsts(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.first = make([]int32, n)
	for i := range rc.first {
		rc.first[i] = -1
	}
}

// addFirst records the first answer to query qi and compares every later
// answer to it: a cached answer must repeat the computed one exactly.
func (rc *recorder) addFirst(qi int, wlen int, rs []route) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	i := rc.first[qi]
	if i < 0 {
		rc.first[qi] = int32(len(rc.recs))
		rc.addLocked(qi, 1, wlen, rs, true)
		return nil
	}
	prev := rc.routes(rc.recs[i])
	if len(prev) != len(rs) {
		return fmt.Errorf("query %d: %d routes, earlier answer had %d", qi, len(rs), len(prev))
	}
	for j := range rs {
		if rs[j].cost != prev[j].cost || witnessKey(rs[j].witness) != witnessKey(prev[j].witness) {
			return fmt.Errorf("query %d: route %d differs from the earlier answer", qi, j)
		}
	}
	return nil
}

// routes decodes one recorded answer.
func (rc *recorder) routes(a answer) []route {
	rs := make([]route, a.n)
	for i := range rs {
		v := a.voff + int32(i)*a.wlen
		rs[i] = route{witness: rc.verts[v : v+a.wlen], cost: rc.costs[a.off+int32(i)]}
	}
	return rs
}

// bytes is the heap the arenas hold.
func (rc *recorder) bytes() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return cap(rc.recs)*int(unsafe.Sizeof(answer{})) + cap(rc.verts)*4 + cap(rc.costs)*8 + cap(rc.first)*4
}

// reset drops every recorded answer.
func (rc *recorder) reset() {
	rc.mu.Lock()
	rc.recs, rc.verts, rc.costs, rc.first = nil, nil, nil, nil
	rc.mu.Unlock()
}

// toRoutes converts wire routes.
func toRoutes(rs []server.RouteJSON) []route {
	out := make([]route, len(rs))
	for i, r := range rs {
		out[i] = route{witness: r.Witness, cost: r.Cost}
	}
	return out
}

// engineRoutes converts engine routes.
func engineRoutes(rs []kosr.Route) []route {
	out := make([]route, len(rs))
	for i, r := range rs {
		out[i] = route{witness: r.Witness, cost: float64(r.Cost)}
	}
	return out
}
