package des

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// byteHash is the trace hash as first defined: FNV-1a over every byte
// of the time bits, the kind byte, and job and node as eight bytes
// each, one step per byte.
type byteHash struct{ h uint64 }

func (t *byteHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		t.h ^= v & 0xFF
		t.h *= 0x100000001B3
		v >>= 8
	}
}

func (t *byteHash) event(at float64, kind byte, job, node int32) {
	t.word(math.Float64bits(at))
	t.h ^= uint64(kind)
	t.h *= 0x100000001B3
	t.word(uint64(uint32(job)))
	t.word(uint64(uint32(node)))
}

// TestTraceHashEqualsByteWise: the folded hash equals the byte-wise
// one after every event of a random stream, with "no job"/"no node"
// (-1), extreme indices and special times mixed in.
func TestTraceHashEqualsByteWise(t *testing.T) {
	rng := faults.NewRNG(17)
	kinds := []byte{evArrive, evStart, evFinish, evSuspend, evNodeFail, evNodeUp, evShock, evRestore}
	times := []float64{0, math.Copysign(0, -1), math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	ids := []int32{-1, 0, 1, math.MaxInt32, math.MinInt32}
	pick := func(fixed []int32) int32 {
		if rng.Uint64()%4 == 0 {
			return fixed[rng.Uint64()%uint64(len(fixed))]
		}
		return int32(rng.Uint64())
	}
	got, want := newTraceHash(), byteHash{h: 0xCBF29CE484222325}
	for i := 0; i < 20000; i++ {
		at := rng.Float64() * 1e6
		if rng.Uint64()%8 == 0 {
			at = times[rng.Uint64()%uint64(len(times))]
		}
		kind := kinds[rng.Uint64()%uint64(len(kinds))]
		job, node := pick(ids), pick(ids)
		got.event(at, kind, job, node)
		want.event(at, kind, job, node)
		if got.h != want.h {
			t.Fatalf("event %d (%v %c %d %d): hash %016x, byte-wise %016x", i, at, kind, job, node, got.h, want.h)
		}
	}
}

// TestDoneHeapPopsInSortedOrder: interleaved pushes and pops return the
// items in (t, seq) order, with many repeated times, as a sort of the
// pending items would.
func TestDoneHeapPopsInSortedOrder(t *testing.T) {
	rng := faults.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		var h doneHeap
		var pending []heapItem
		var seq uint64
		distinct := 1 + rng.Uint64()%20
		for op := 0; op < 2000; op++ {
			if len(pending) == 0 || rng.Uint64()%3 != 0 {
				seq++
				it := heapItem{t: float64(rng.Uint64() % distinct), seq: seq, job: int32(op), gen: uint32(trial)}
				h.push(it)
				pending = append(pending, it)
				continue
			}
			min := 0
			for i := range pending {
				if pending[i].before(pending[min]) {
					min = i
				}
			}
			if got := h.pop(); got != pending[min] {
				t.Fatalf("trial %d op %d: popped %+v, sorted order has %+v", trial, op, got, pending[min])
			}
			pending = append(pending[:min], pending[min+1:]...)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
		for _, want := range pending {
			if got := h.pop(); got != want {
				t.Fatalf("trial %d drain: popped %+v, sorted order has %+v", trial, got, want)
			}
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d items left after draining", trial, len(h))
		}
	}
}

// thinningArrivals is generateArrivals as first written: every
// thinning draw is tested against the sine-modulated rate.
func thinningArrivals(sp ArrivalSpec, seed uint64, horizon float64, maxJobs int) []jobArrival {
	if sp.Zero() || horizon <= 0 || maxJobs <= 0 {
		return nil
	}
	root := faults.NewRNG(seed)
	times := root.Fork("des.arrival.time")
	thin := root.Fork("des.arrival.thin")
	burst := root.Fork("des.arrival.burst")
	sizes := root.Fork("des.arrival.size")

	lamMax := sp.Rate * (1 + sp.Diurnal)
	mean := sp.meanUnits()
	var out []jobArrival
	t := 0.0
	for len(out) < maxJobs {
		t += times.Exp(1 / lamMax)
		if t >= horizon {
			break
		}
		if sp.Diurnal > 0 && thin.Float64()*lamMax > sp.rateAt(t) {
			continue
		}
		n := burst.Geometric(sp.Burst)
		for i := 0; i < n && len(out) < maxJobs; i++ {
			u := mean
			if sp.Spread > 0 {
				u = mean * (1 - sp.Spread + 2*sp.Spread*sizes.Float64())
			}
			out = append(out, jobArrival{at: t, units: u})
		}
	}
	return out
}

// sameArrivals reports the first difference between two traces, bit
// for bit, or "" when they are equal.
func sameArrivals(got, want []jobArrival) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].at) != math.Float64bits(want[i].at) ||
			math.Float64bits(got[i].units) != math.Float64bits(want[i].units) {
			return fmt.Sprintf("job %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestGenerateArrivalsEqualsThinning: skipping the sine below the
// trough leaves every trace bit-identical to the original thinning
// loop, over random specs and seeds — diurnal amplitudes from none to
// full (and a hair off each end), spreads, bursts, periods, and
// truncation by maxJobs.
func TestGenerateArrivalsEqualsThinning(t *testing.T) {
	rng := faults.NewRNG(23)
	diurnals := []float64{0, 1e-12, 0.3, 1, 1 - 1e-12, 0.999}
	for trial := 0; trial < 300; trial++ {
		sp := ArrivalSpec{
			Rate:    math.Pow(10, -2+4*rng.Float64()),
			Diurnal: diurnals[trial%len(diurnals)],
			Period:  []float64{0, 1, 60, 3600}[rng.Uint64()%4],
			Units:   []float64{0, 1e9, 2e12}[rng.Uint64()%3],
		}
		if rng.Uint64()%2 == 0 {
			sp.Burst = 1 + 4*rng.Float64()
		}
		if rng.Uint64()%2 == 0 {
			sp.Spread = 0.99 * rng.Float64()
		}
		horizon := []float64{1, 600, 1e4}[rng.Uint64()%3]
		maxJobs := []int{1, 50, 5000}[rng.Uint64()%3]
		seed := rng.Uint64()
		got := generateArrivals(sp, seed, horizon, maxJobs)
		if diff := sameArrivals(got, thinningArrivals(sp, seed, horizon, maxJobs)); diff != "" {
			t.Fatalf("spec %v seed %d horizon %g maxJobs %d: %s", sp, seed, horizon, maxJobs, diff)
		}
	}
}

// TestProbeEqualsAdmitWaiting: for every catalog (platform, workload)
// pair of matching kind, under both split policies the CPU nodes take,
// the admission pass's cached probe answers pools at, one ulp above,
// twice and far above the saturation point — and just below it —
// exactly as Scheduler.Admit at that exact pool does, whether the
// first probe of the pair lands above the saturation point or below
// it.
func TestProbeEqualsAdmitWaiting(t *testing.T) {
	pairs, admitted := 0, 0
	for _, p := range hw.AllPlatforms() {
		for _, w := range workload.AllWorkloads() {
			if p.Kind != w.Kind {
				continue
			}
			policies := []cluster.SplitPolicy{cluster.PolicyCoord}
			if p.Kind == hw.KindCPU {
				policies = append(policies, cluster.PolicyEvenSplit)
			}
			node := cluster.Node{ID: "n0", Platform: p}
			s, err := cluster.NewScheduler(units.Power(1e6), []cluster.Node{node})
			if err != nil {
				t.Fatal(err)
			}
			job := cluster.Job{ID: "probe", Workload: w}
			for _, policy := range policies {
				_, sat, _, err := s.Admit(node, job, units.Power(1e6), policy)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", p.Name, w.Name, policy, err)
				}
				// Three pools below sat, each its own entry, then four at
				// or above it that share one.
				pools := []units.Power{sat / 2, 0.999 * sat, units.Power(math.Nextafter(sat.Watts(), 0)),
					sat, units.Power(math.Nextafter(sat.Watts(), math.Inf(1))), 2 * sat, units.Power(1e6)}
				for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}} {
					pr := newProber(s, policy, 1, []workload.Workload{w})
					for _, i := range order {
						pool := pools[i]
						got, err := pr.probe(0, 0, 0, pool)
						if err != nil {
							t.Fatalf("%s/%s %v: probe at %v: %v", p.Name, w.Name, policy, pool, err)
						}
						want, _, ok, err := s.Admit(node, job, pool, policy)
						if err != nil {
							t.Fatalf("%s/%s %v: Admit at %v: %v", p.Name, w.Name, policy, pool, err)
						}
						if ok {
							admitted++
						}
						if got != want || ok != (got.Rate > 0) {
							t.Errorf("%s/%s %v at %v (sat %v): probe %+v, Admit %+v",
								p.Name, w.Name, policy, pool, sat, got, want)
						}
					}
					if len(pr.cache) != 4 {
						t.Errorf("%s/%s %v: %d cache entries for 3 pools below sat and 4 at or above it, want 4",
							p.Name, w.Name, policy, len(pr.cache))
					}
				}
			}
			pairs++
		}
	}
	t.Logf("%d pairs, %d admissions", pairs, admitted)
	if pairs == 0 || admitted == 0 {
		t.Fatalf("%d catalog pairs of matching kind, %d admitted: the test checks nothing", pairs, admitted)
	}
}
