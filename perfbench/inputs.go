package main

import (
	"math/rand"
	"slices"
	"sync/atomic"

	kosr "repro"
)

// mix is a request mix: |C| and k are drawn uniformly from the lists.
type mix struct {
	lens []int
	ks   []int
}

// The paper's grid (Figures 3d–g) for the served workloads. live-updates
// keeps queries small so that the update stream does most of the work,
// and engine-methods keeps |C| ≤ 3 so that KPNE stays cheap and the
// latency tail light.
var (
	paperMix  = mix{lens: []int{2, 4, 6}, ks: []int{10, 20, 30, 40, 50}}
	liveMix   = mix{lens: []int{2, 3, 4}, ks: []int{5, 10}}
	engineMix = mix{lens: []int{2, 3}, ks: []int{2, 5, 10}}
)

// stream hands out distinct seeded queries without keeping them: query
// i is a pure function of the seed and i, so the run's request log costs
// no memory and cannot grow with the program's speed. Queries are
// distinct because i picks a distinct (source, target) pair through an
// affine bijection of the pair space. The main sequence counts up from
// 0; side queries, drawn from another mix, take indices from the upper
// half of that space, so they never repeat a main query either.
type stream struct {
	seed     uint64
	n        uint64 // vertices
	ncat     int
	mix      mix
	sideMix  mix
	mul, add uint64       // pair index = (mul·i + add) mod n²
	count    atomic.Int64 // main queries handed out
	sides    atomic.Int64 // side queries handed out
}

func newStream(g *kosr.Graph, m, side mix, seed int64) *stream {
	n := uint64(g.NumVertices())
	s := &stream{seed: uint64(seed), n: n, ncat: g.NumCategories(), mix: m, sideMix: side}
	x := s.seed
	pairs := n * n
	s.add = splitmix(&x) % pairs
	for s.mul = splitmix(&x)%pairs | 1; gcd(s.mul, pairs) != 1; s.mul += 2 {
	}
	return s
}

// sideBase is the first index of the side sequence.
func (s *stream) sideBase() int { return int(s.n * s.n / 2) }

// next returns the next main query and its index.
func (s *stream) next() (int, query) {
	i := int(s.count.Add(1) - 1)
	if i >= s.sideBase() {
		panic("perfbench: query space exhausted")
	}
	return i, s.at(i)
}

// skip hands out the next n main queries without returning them.
func (s *stream) skip(n int) { s.count.Add(int64(n)) }

// nextSide returns the next side query, drawn from the side mix.
func (s *stream) nextSide() (int, query) {
	i := s.sideBase() + int(s.sides.Add(1)-1)
	return i, s.at(i)
}

// at returns query i.
func (s *stream) at(i int) query {
	m := s.mix
	if i >= s.sideBase() {
		m = s.sideMix
	}
	p := (s.mul*uint64(i) + s.add) % (s.n * s.n)
	x := s.seed ^ uint64(i)*0xd1342543de82ef95
	j := m.lens[splitmix(&x)%uint64(len(m.lens))]
	cats := make([]kosr.Category, 0, j)
	for len(cats) < j {
		c := kosr.Category(splitmix(&x) % uint64(s.ncat))
		if !slices.Contains(cats, c) {
			cats = append(cats, c)
		}
	}
	return query{
		src:  kosr.Vertex(p / s.n),
		dst:  kosr.Vertex(p % s.n),
		cats: cats,
		k:    m.ks[splitmix(&x)%uint64(len(m.ks))],
	}
}

// splitmix advances x and returns the next SplitMix64 output.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// updateGen draws update batches: cheaper parallel arcs of base arcs,
// plus category memberships added and, one batch later, removed again.
type updateGen struct {
	rng   *rand.Rand
	g     *kosr.Graph
	added []kosr.Update
}

// Update batch make-up: kosrbench's live update scan, which applies one
// cheaper parallel arc per Apply (0.9 of a base arc's weight; here the
// base arc is a random vertex's random out-arc) while queries run. A
// category addition, and the removal of the previous batch's, ride
// along so that every batch also refreshes inverted lists.
const (
	arcsPerBatch = 1
	arcDiscount  = 0.9
	catsPerBatch = 1
)

// updateSeed seeds the update stream, which is the same on every run:
// the cost of one arc varies widely from arc to arc, and with a stream
// drawn from --seed the seed decided apply_p50_ms and updates_per_s
// more than the program did (five seeds spread 0.28 and 0.52 of the
// median over a 96-batch epilogue).
const updateSeed = 2

func newUpdateGen(g *kosr.Graph) *updateGen {
	return &updateGen{rng: rand.New(rand.NewSource(updateSeed)), g: g}
}

func (u *updateGen) next() []kosr.Update {
	n := u.g.NumVertices()
	var ups []kosr.Update
	for i := 0; i < arcsPerBatch; i++ {
		v := kosr.Vertex(u.rng.Intn(n))
		out := u.g.Out(v)
		a := out[u.rng.Intn(len(out))]
		ups = append(ups, kosr.Update{Op: kosr.OpInsertEdge, From: v, To: a.To, Weight: a.W * arcDiscount})
	}
	for _, a := range u.added {
		ups = append(ups, kosr.Update{Op: kosr.OpRemoveCategory, Vertex: a.Vertex, Category: a.Category})
	}
	u.added = u.added[:0]
	for len(u.added) < catsPerBatch {
		v := kosr.Vertex(u.rng.Intn(n))
		c := kosr.Category(u.rng.Intn(u.g.NumCategories()))
		if u.g.HasCategory(v, c) {
			continue
		}
		a := kosr.Update{Op: kosr.OpAddCategory, Vertex: v, Category: c}
		u.added = append(u.added, a)
		ups = append(ups, a)
	}
	return ups
}
