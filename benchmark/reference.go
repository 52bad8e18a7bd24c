package main

import (
	"math"
	"slices"
	"time"
)

// The reference kernel: a triangle count by merge intersection over a fixed
// graph of the benchmark's own. It touches no code or memory under test, so
// how long it takes is the host's doing and nothing else's.
//
// It exists because this benchmark runs on a few cores of a shared host, and
// such a host runs one program at one of several speeds — about 1 : 1.3 : 1.8
// — and holds each for seconds to minutes. Wall-clock medians of 16 s runs of
// the same code then spread by up to 0.30 of their median (0.73 in a bad
// hour), which no bound the contract allows can hold. The kernel is run before and after every timed
// interval (an operation of the pass workloads, a round of the serving ones, a
// set-up), and the interval is reported in *reference time*:
//
//	wall time × referenceNominal ÷ mean(kernel before, kernel after)
//
// that is, what it would have taken had the host run the kernel in exactly
// referenceNominal throughout. A change to the program moves reference time
// in proportion, like wall time; a change of the host's speed moves wall time
// and leaves reference time where it was (measured: ten 15 s windows of one
// run spread 0.04–0.16 in wall time and 0.006–0.04 in reference time).
//
// The kernel is branchy integer merging over some 400 kB, like the engine's
// own inner loops, and that matters: a loop that stays in the first-level
// cache slows down by other factors than the engine when a neighbour takes
// the core's other thread, and scaling by it removes half the spread at best.
type reference struct {
	offs, adj []uint32
	triangles int           // the kernel's result, fixed by the first run
	samples   []float64     // every run, in ms
	spent     time.Duration // total time in run
}

// referenceNominal is how long the kernel takes on the host README.md's
// reference numbers come from, a 2.1 GHz Xeon, in the state that host is in
// most often. It only fixes the scale: with it, reference milliseconds read
// like wall-clock milliseconds of that host when it is quiet.
const referenceNominal = 14 * time.Millisecond

// newReference builds the kernel's graph: 2^13 vertices with 1–24
// out-neighbours each, drawn with a skew towards low IDs, from a fixed xorshift
// sequence. It runs the kernel once, untimed, so that the first timed run does
// not pay for cold pages.
func newReference() *reference {
	const nv = 1 << 13
	r := &reference{offs: make([]uint32, nv+1)}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for v := 0; v < nv; v++ {
		start := len(r.adj)
		for d := 1 + next()%24; d > 0; d-- {
			// The product of two uniform draws: low IDs are popular.
			u := next() % uint64(nv) * (next() % uint64(nv)) / uint64(nv)
			r.adj = append(r.adj, uint32(u))
		}
		slices.Sort(r.adj[start:])
		r.adj = append(r.adj[:start], slices.Compact(r.adj[start:])...)
		r.offs[v+1] = uint32(len(r.adj))
	}
	r.triangles = r.count()
	return r
}

func (r *reference) count() int {
	total := 0
	for v := 0; v+1 < len(r.offs); v++ {
		a := r.adj[r.offs[v]:r.offs[v+1]]
		for _, u := range a {
			b := r.adj[r.offs[u]:r.offs[u+1]]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					total++
					i++
					j++
				}
			}
		}
	}
	return total
}

// run times the kernel once.
func (r *reference) run() time.Duration {
	t0 := time.Now()
	n := r.count()
	d := time.Since(t0)
	if n != r.triangles {
		panic("benchmark: the reference kernel miscounted its own graph")
	}
	r.samples = append(r.samples, ms(d))
	r.spent += d
	return d
}

// toReference is the factor that converts a wall-clock interval into reference
// time, given the kernel runs on either side of it.
func toReference(before, after time.Duration) float64 {
	return 2 * float64(referenceNominal) / float64(before+after)
}

// noisyHost flags a run whose reference kernel changed speed by more than
// 15 % between its start and its end.
func noisyHost(start, end time.Duration) bool {
	lo, hi := math.Min(float64(start), float64(end)), math.Max(float64(start), float64(end))
	return lo > 0 && hi/lo > 1.15
}
