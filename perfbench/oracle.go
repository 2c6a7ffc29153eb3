package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	kosr "repro"
)

// The oracle checks answers against the effective graph — the base
// graph's arcs and categories plus every update batch the benchmark
// applied — with its own Dijkstra. It reads the base graph only through
// its arc and category accessors and shares no code with the label,
// inverted-index, engine or Dijkstra packages it checks.

// query is one KOSR request as the benchmark generates it.
type query struct {
	src, dst kosr.Vertex
	cats     []kosr.Category
	k        int
}

// route is one answered route: its witness and its reported cost.
type route struct {
	witness []int32
	cost    float64
}

// batch is one applied update batch and the epoch it published.
type batch struct {
	epoch uint64
	ups   []kosr.Update
}

type oracle struct {
	g     *kosr.Graph
	log   []batch // in epoch order
	views map[uint64]*view
}

func newOracle(g *kosr.Graph) *oracle {
	return &oracle{g: g, views: make(map[uint64]*view)}
}

// logBatch records an applied batch; epochs arrive in increasing order
// because one client is the only writer.
func (o *oracle) logBatch(epoch uint64, ups []kosr.Update) {
	o.log = append(o.log, batch{epoch: epoch, ups: ups})
}

// bytes is the heap the update log holds.
func (o *oracle) bytes() int {
	n := cap(o.log) * int(unsafe.Sizeof(batch{}))
	for _, b := range o.log {
		n += cap(b.ups) * int(unsafe.Sizeof(kosr.Update{}))
	}
	return n
}

// finalEpoch is the epoch the last logged batch published (1 when none).
func (o *oracle) finalEpoch() uint64 {
	if len(o.log) == 0 {
		return 1
	}
	return o.log[len(o.log)-1].epoch
}

// view is the effective graph at one epoch, with memoized distance rows.
type view struct {
	g      *kosr.Graph
	off    []int32 // CSR out-adjacency
	to     []int32
	w      []float64
	member map[[2]int32]bool // category overrides: (vertex, category) → present
	rows   map[int32][]float64
	src    int32     // the query being checked has its source's row aside,
	srcRow []float64 // since sources rarely repeat and would flood rows
	// symmetric views (undirected base graph; inserted arcs mirrored)
	// read a source's distances from its partners' rows instead
	symmetric bool
}

// at returns the effective graph after every batch up to epoch.
func (o *oracle) at(epoch uint64) *view {
	if v, ok := o.views[epoch]; ok {
		return v
	}
	g := o.g
	n := g.NumVertices()
	type arc struct {
		u, v int32
		w    float64
	}
	var extra []arc
	member := make(map[[2]int32]bool)
	for _, b := range o.log {
		if b.epoch > epoch {
			break
		}
		for _, u := range b.ups {
			switch u.Op {
			case kosr.OpInsertEdge:
				extra = append(extra, arc{int32(u.From), int32(u.To), float64(u.Weight)})
				if !g.Directed() && u.From != u.To {
					extra = append(extra, arc{int32(u.To), int32(u.From), float64(u.Weight)})
				}
			case kosr.OpAddCategory:
				member[[2]int32{int32(u.Vertex), int32(u.Category)}] = true
			case kosr.OpRemoveCategory:
				member[[2]int32{int32(u.Vertex), int32(u.Category)}] = false
			}
		}
	}
	deg := make([]int32, n+1)
	for v := 0; v < n; v++ {
		deg[v+1] = int32(len(g.Out(kosr.Vertex(v))))
	}
	for _, a := range extra {
		deg[a.u+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	vw := &view{g: g, off: deg, to: make([]int32, deg[n]), w: make([]float64, deg[n]),
		member: member, rows: make(map[int32][]float64), src: -1, symmetric: !g.Directed()}
	fill := append([]int32(nil), deg[:n]...)
	for v := 0; v < n; v++ {
		for _, a := range g.Out(kosr.Vertex(v)) {
			vw.to[fill[v]], vw.w[fill[v]] = int32(a.To), float64(a.W)
			fill[v]++
		}
	}
	for _, a := range extra {
		vw.to[fill[a.u]], vw.w[fill[a.u]] = a.v, a.w
		fill[a.u]++
	}
	o.views[epoch] = vw
	return vw
}

// drop releases every memoized view, rows included.
func (o *oracle) drop() { o.views = make(map[uint64]*view) }

func (v *view) has(x int32, c kosr.Category) bool {
	if p, ok := v.member[[2]int32{x, int32(c)}]; ok {
		return p
	}
	return v.g.HasCategory(kosr.Vertex(x), c)
}

// members lists the vertices of c at this epoch.
func (v *view) members(c kosr.Category) []int32 {
	var out []int32
	for _, x := range v.g.VerticesOf(c) {
		if v.has(int32(x), c) {
			out = append(out, int32(x))
		}
	}
	for key, p := range v.member {
		if p && key[1] == int32(c) && !v.g.HasCategory(kosr.Vertex(key[0]), c) {
			out = append(out, key[0])
		}
	}
	return out
}

// distItem and distHeap are a plain binary min-heap for Dijkstra with
// lazy deletion.
type distItem struct {
	d float64
	v int32
}

type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].d <= a[i].d {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].d < a[c].d {
			c++
		}
		if a[i].d <= a[c].d {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// rowCap bounds the distance rows a view keeps; past it the memo starts
// afresh. Apart from the source's row, which is kept aside, the checks
// read rows from category members only: 2,520 of them on the CAL
// analogue (80 MB), so the cap is a guard, not a working limit.
const rowCap = 3072

// aside makes u the current source: its row is kept aside of the memo
// until the next call, or not computed at all on a symmetric view.
func (v *view) aside(u int32) {
	v.src, v.srcRow = u, nil
	if !v.symmetric {
		v.srcRow = v.dijkstra(u)
	}
}

// dist is the shortest-path distance from u to x.
func (v *view) dist(u, x int32) float64 {
	if u == v.src && v.symmetric {
		return v.row(x)[u]
	}
	return v.row(u)[x]
}

// row returns the shortest-path distances from u to every vertex.
func (v *view) row(u int32) []float64 {
	if u == v.src && v.srcRow != nil {
		return v.srcRow
	}
	if r, ok := v.rows[u]; ok {
		return r
	}
	if len(v.rows) >= rowCap {
		v.rows = make(map[int32][]float64)
	}
	d := v.dijkstra(u)
	v.rows[u] = d
	return d
}

// dijkstra computes the shortest-path distances from u to every vertex.
func (v *view) dijkstra(u int32) []float64 {
	n := len(v.off) - 1
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[u] = 0
	h := distHeap{{0, u}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > d[it.v] {
			continue
		}
		for e := v.off[it.v]; e < v.off[it.v+1]; e++ {
			if nd := it.d + v.w[e]; nd < d[v.to[e]] {
				d[v.to[e]] = nd
				h.push(distItem{nd, v.to[e]})
			}
		}
	}
	return d
}

// layered returns the optimal sequenced-route cost by Dijkstra over
// (vertex, position) states: position i means C1…Ci are visited; a
// vertex of C(i+1) may advance the position at no cost.
func (v *view) layered(q query) float64 {
	n := len(v.off) - 1
	j := len(q.cats)
	in := make([][]bool, j)
	for i, c := range q.cats {
		in[i] = make([]bool, n)
		for _, x := range v.members(c) {
			in[i][x] = true
		}
	}
	d := make([]float64, n*(j+1))
	for i := range d {
		d[i] = math.Inf(1)
	}
	start := int32(q.src)
	d[start] = 0
	h := distHeap{{0, start}}
	for len(h) > 0 {
		it := h.pop()
		if it.d > d[it.v] {
			continue
		}
		x, pos := it.v%int32(n), int(it.v/int32(n))
		if pos == j && x == int32(q.dst) {
			return it.d
		}
		relax := func(s int32, nd float64) {
			if nd < d[s] {
				d[s] = nd
				h.push(distItem{nd, s})
			}
		}
		if pos < j && in[pos][x] {
			relax(it.v+int32(n), it.d)
		}
		for e := v.off[x]; e < v.off[x+1]; e++ {
			relax(int32(pos)*int32(n)+v.to[e], it.d+v.w[e])
		}
	}
	return math.Inf(1)
}

// optimum returns the optimal sequenced-route cost by dynamic
// programming over category members: best(v) for v in Ci is the cheapest
// way from s through C1…Ci ending at v, from oracle distance rows.
func (v *view) optimum(q query) float64 {
	prev := []int32{int32(q.src)}
	best := []float64{0}
	for _, c := range q.cats {
		mem := v.members(c)
		next := make([]float64, len(mem))
		for i := range next {
			next[i] = math.Inf(1)
		}
		for i, u := range prev {
			var r []float64
			if u != v.src || !v.symmetric {
				r = v.row(u)
			}
			for j, x := range mem {
				d := 0.0
				if r != nil {
					d = r[x]
				} else {
					d = v.dist(u, x)
				}
				if c := best[i] + d; c < next[j] {
					next[j] = c
				}
			}
		}
		prev, best = mem, next
	}
	opt := math.Inf(1)
	for i, u := range prev {
		opt = math.Min(opt, best[i]+v.row(u)[q.dst])
	}
	return opt
}

// bruteLimit bounds the witnesses bruteTopK enumerates.
const bruteLimit = 300_000

// witnessCount is the number of category tuples of q, capped at limit+1.
func (v *view) witnessCount(q query, limit int) int {
	total := 1
	for _, c := range q.cats {
		total *= len(v.members(c))
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// bruteTopK enumerates every witness of q and returns the k cheapest
// costs (Definition 5 read literally).
func (v *view) bruteTopK(q query) []float64 {
	j := len(q.cats)
	mem := make([][]int32, j)
	for i, c := range q.cats {
		mem[i] = v.members(c)
	}
	var costs []float64
	var rec func(level int, prev int32, cost float64)
	rec = func(level int, prev int32, cost float64) {
		r := v.row(prev)
		if level == j {
			if c := cost + r[q.dst]; !math.IsInf(c, 1) {
				costs = append(costs, c)
			}
			return
		}
		for _, x := range mem[level] {
			if !math.IsInf(r[x], 1) {
				rec(level+1, x, cost+r[x])
			}
		}
	}
	rec(0, int32(q.src), 0)
	sort.Float64s(costs)
	if len(costs) > q.k {
		costs = costs[:q.k]
	}
	return costs
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkShape verifies what needs no distances: every witness runs from
// s to t through C1…Cj in order, witnesses are distinct, costs are
// nondecreasing, and the answer is complete. The graphs the benchmark
// generates are strongly connected, so every category tuple is a
// feasible witness and fewer than k routes means a missing answer.
func (v *view) checkShape(q query, rs []route) error {
	if want := min(q.k, v.witnessCount(q, q.k)); len(rs) != want {
		return fmt.Errorf("got %d routes, want %d", len(rs), want)
	}
	seen := make(map[string]bool, len(rs))
	for i, r := range rs {
		w := r.witness
		if len(w) != len(q.cats)+2 || w[0] != int32(q.src) || w[len(w)-1] != int32(q.dst) {
			return fmt.Errorf("route %d: witness %v does not run %d→%d through %d categories", i, w, q.src, q.dst, len(q.cats))
		}
		for p, c := range q.cats {
			if !v.has(w[p+1], c) {
				return fmt.Errorf("route %d: witness vertex %d is not in category %d", i, w[p+1], c)
			}
		}
		key := witnessKey(w)
		if seen[key] {
			return fmt.Errorf("route %d: duplicate witness %v", i, w)
		}
		seen[key] = true
		if i > 0 && r.cost < rs[i-1].cost && !sameCost(r.cost, rs[i-1].cost) {
			return fmt.Errorf("route %d: cost %v below previous %v", i, r.cost, rs[i-1].cost)
		}
	}
	return nil
}

// check runs checkShape, recomputes every cost from oracle distances
// between consecutive witness vertices and compares the first cost with
// the optimum over category members. When deep is set it also compares
// the first cost with the layered (vertex, position) Dijkstra optimum
// and, when the witness space is small, the whole cost list with
// brute-force enumeration.
func (v *view) check(q query, rs []route, deep bool) error {
	if err := v.checkShape(q, rs); err != nil {
		return err
	}
	v.aside(int32(q.src))
	for i, r := range rs {
		var sum float64
		for p := 0; p+1 < len(r.witness); p++ {
			sum += v.dist(r.witness[p], r.witness[p+1])
		}
		if !sameCost(sum, r.cost) {
			return fmt.Errorf("route %d: witness %v costs %v by the oracle, answer says %v", i, r.witness, sum, r.cost)
		}
	}
	if len(rs) > 0 {
		if opt := v.optimum(q); !sameCost(opt, rs[0].cost) {
			return fmt.Errorf("first cost %v, optimum %v", rs[0].cost, opt)
		}
	}
	if !deep {
		return nil
	}
	if len(rs) > 0 {
		if opt := v.layered(q); !sameCost(opt, rs[0].cost) {
			return fmt.Errorf("first cost %v, layered optimum %v", rs[0].cost, opt)
		}
	}
	if v.witnessCount(q, bruteLimit) <= bruteLimit {
		want := v.bruteTopK(q)
		if len(want) != len(rs) {
			return fmt.Errorf("brute force finds %d routes, answer has %d", len(want), len(rs))
		}
		for i := range want {
			if !sameCost(want[i], rs[i].cost) {
				return fmt.Errorf("cost %d: brute force %v, answer %v", i, want[i], rs[i].cost)
			}
		}
	}
	return nil
}

func witnessKey(w []int32) string {
	var b strings.Builder
	for _, x := range w {
		b.WriteString(strconv.Itoa(int(x)))
		b.WriteByte(',')
	}
	return b.String()
}

// selfTest runs the oracle on the paper's Figure 1 example, where s→t
// via ⟨MA, RE, CI⟩ has top-3 costs 20, 21 and 22.
func selfTest() error {
	g := kosr.Figure1()
	var cats []kosr.Category
	for _, name := range []string{"MA", "RE", "CI"} {
		c, ok := g.CategoryByName(name)
		if !ok {
			return fmt.Errorf("figure 1: no category %s", name)
		}
		cats = append(cats, c)
	}
	s, _ := g.VertexByName("s")
	t, _ := g.VertexByName("t")
	q := query{src: s, dst: t, cats: cats, k: 3}
	v := newOracle(g).at(1)
	got := v.bruteTopK(q)
	want := []float64{20, 21, 22}
	if len(got) != len(want) {
		return fmt.Errorf("figure 1: brute force gives %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("figure 1: brute force gives %v, want %v", got, want)
		}
	}
	if opt := v.layered(q); opt != 20 {
		return fmt.Errorf("figure 1: layered optimum %v, want 20", opt)
	}
	if opt := v.optimum(q); opt != 20 {
		return fmt.Errorf("figure 1: optimum %v, want 20", opt)
	}
	return nil
}
