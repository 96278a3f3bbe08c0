package powertree

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/coord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

// curvePoints is the number of budget samples per leaf curve. The
// samples land on the quantum grid across the leaf's productive
// envelope; the concave upper envelope of the sampled (budget, perf)
// points is what the water-filling fill consumes.
const curvePoints = 25

// segment is one linear piece of a concave performance curve: width
// quanta at slope model-performance per quantum. A curve's segments
// have non-increasing slopes by construction.
type segment struct {
	width int64
	slope float64
}

// curve is a leaf's concave piecewise-linear performance model over its
// productive envelope [floorQ, maxQ] (in quanta). base is the model
// performance at the floor; segments carry the marginal gains beyond
// it. Synthetic curves (tests) leave the profile fields nil.
type curve struct {
	floorQ int64
	maxQ   int64
	base   float64
	segs   []segment

	kind    hw.Kind
	cpuProf *profile.CPUProfile
	gpuProf *profile.GPUProfile
	minCap  units.Power // GPU cap floor; 0 on CPU curves
}

// perfAt evaluates the model performance at a grant of q quanta
// (q ≥ floorQ; grants beyond maxQ add nothing).
func (c *curve) perfAt(q int64) float64 {
	perf := c.base
	left := q - c.floorQ
	for _, s := range c.segs {
		if left <= 0 {
			break
		}
		take := s.width
		if take > left {
			take = left
		}
		perf += float64(take) * s.slope
		left -= take
	}
	return perf
}

// CurveSet holds the built leaf curves of a tree, one per leaf class:
// leaves whose platform and workload are equal by value share a curve,
// and a same-named variant (a workload with other phase parameters, a
// platform with other specs) is a class of its own. The zero value is
// an empty set.
type CurveSet struct {
	curves map[pair][]classCurve // classes by platform/workload name
}

// classCurve is one leaf class and its curve.
type classCurve struct {
	platform hw.Platform
	workload workload.Workload
	c        *curve
}

// pair names a (platform, workload) pair.
type pair struct{ platform, workload string }

func pairKey(p hw.Platform, w workload.Workload) pair {
	return pair{p.Name, w.Name}
}

func (k pair) String() string { return k.platform + "/" + k.workload }

// add files c as the curve of the (p, w) class.
func (cs *CurveSet) add(p hw.Platform, w workload.Workload, c *curve) {
	if cs.curves == nil {
		cs.curves = map[pair][]classCurve{}
	}
	k := pairKey(p, w)
	cs.curves[k] = append(cs.curves[k], classCurve{platform: p, workload: w, c: c})
}

// lookup returns the curve of the (p, w) class, or nil.
func (cs *CurveSet) lookup(p hw.Platform, w workload.Workload) *curve {
	for _, cc := range cs.curves[pairKey(p, w)] {
		if samePlatform(cc.platform, p) && sameWorkload(cc.workload, w) {
			return cc.c
		}
	}
	return nil
}

// samePlatform reports whether p and q are equal by value, their
// component specs compared by content rather than by pointer: every
// catalog lookup returns fresh spec pointers.
func samePlatform(p, q hw.Platform) bool {
	if !sameSpec(p.CPU, q.CPU) || !sameSpec(p.DRAM, q.DRAM) || !sameSpec(p.GPU, q.GPU) {
		return false
	}
	p.CPU, p.DRAM, p.GPU = nil, nil, nil
	q.CPU, q.DRAM, q.GPU = nil, nil, nil
	return p == q
}

func sameSpec[T comparable](a, b *T) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// sameWorkload reports whether w and v are equal by value, field by
// field (reflect.DeepEqual costs microseconds a leaf on 4096-leaf
// trees); TestSameWorkloadCoversEveryField keeps the list complete.
func sameWorkload(w, v workload.Workload) bool {
	return w.Name == v.Name && w.Suite == v.Suite && w.Desc == v.Desc &&
		w.Kind == v.Kind && w.PerfUnit == v.PerfUnit &&
		w.PerfPerUnitRate == v.PerfPerUnitRate && slices.Equal(w.Phases, v.Phases)
}

// BuildCurves profiles every leaf class of the spec and samples its
// performance curve through the current default evaluation engine:
// COORD splits each sampled budget across the node's components and
// the engine simulates the result, exactly the pipeline the cluster
// scheduler admits jobs with. The engine memoizes each curve whole, so
// a class any earlier tree had is not sampled again. Curve
// construction is deterministic for a fixed engine configuration, and
// serial and parallel engines produce byte-identical curves (the
// engine-identity guarantee the golden tests pin).
func BuildCurves(spec Spec) (*CurveSet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cs := &CurveSet{}
	for ri := range spec.Racks {
		for ni := range spec.Racks[ri].Nodes {
			n := &spec.Racks[ri].Nodes[ni]
			if cs.lookup(n.Platform, n.Workload) != nil {
				continue
			}
			c, err := buildLeafCurve(n.Platform, n.Workload)
			if err != nil {
				return nil, fmt.Errorf("powertree: curve for %s: %w", pairKey(n.Platform, n.Workload), err)
			}
			cs.add(n.Platform, n.Workload, c)
		}
	}
	return cs, nil
}

// curveFor returns the curve of a node's class.
func (cs *CurveSet) curveFor(n *Node) (*curve, error) {
	c := cs.lookup(n.Platform, n.Workload)
	if c == nil {
		return nil, fmt.Errorf("powertree: no curve built for %s/%s", n.Platform.Name, n.Workload.Name)
	}
	return c, nil
}

// buildLeafCurve returns the (platform, workload) performance curve,
// memoized on the default engine by the pair's content and charged
// curvePoints, the most samples a curve takes. Callers share the
// returned curve and never mutate it.
func buildLeafCurve(p hw.Platform, w workload.Workload) (*curve, error) {
	eng := evalpool.Default()
	b := eng.Bind(evalpool.Problem{Platform: p, Workload: w})
	return evalpool.DeriveWeighted(b, "powertree.curve", 0, curvePoints, func() (*curve, error) {
		return sampleLeafCurve(eng, p, w)
	})
}

// sampleLeafCurve samples one (platform, workload) performance curve
// over its productive envelope and takes the concave upper envelope.
func sampleLeafCurve(eng *evalpool.Engine, p hw.Platform, w workload.Workload) (*curve, error) {
	c := &curve{kind: p.Kind}
	var lo, hi units.Power
	switch p.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			return nil, err
		}
		c.cpuProf = &prof
		lo = prof.Critical.ProductiveThreshold()
		hi = prof.Critical.CPUMax + prof.Critical.MemMax
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(p, w)
		if err != nil {
			return nil, err
		}
		c.gpuProf = &prof
		c.minCap = p.GPU.MinCap
		lo = p.GPU.MinCap
		hi = prof.TotMax
		if hi > p.GPU.MaxCap {
			hi = p.GPU.MaxCap
		}
		// The card cannot be capped below its floor; a demand under
		// MinCap still needs a MinCap grant (cluster envelope rule).
		if hi < lo {
			hi = lo
		}
	default:
		return nil, fmt.Errorf("unknown platform kind %v", p.Kind)
	}
	c.floorQ = ceilQuanta(lo)
	c.maxQ = toQuanta(hi)
	if c.maxQ < c.floorQ {
		c.maxQ = c.floorQ
	}

	qs := sampleQuanta(c.floorQ, c.maxQ)
	perfs, err := measurePerf(eng, p, w, c, qs)
	if err != nil {
		return nil, err
	}
	c.base, c.segs = concaveEnvelope(qs, perfs)
	return c, nil
}

// sampleQuanta spreads curvePoints samples (deduplicated) across
// [floorQ, maxQ] on the quantum grid, endpoints included.
func sampleQuanta(floorQ, maxQ int64) []int64 {
	if maxQ <= floorQ {
		return []int64{floorQ}
	}
	span := maxQ - floorQ
	qs := make([]int64, 0, curvePoints)
	for i := 0; i < curvePoints; i++ {
		q := floorQ + span*int64(i)/int64(curvePoints-1)
		if len(qs) == 0 || q > qs[len(qs)-1] {
			qs = append(qs, q)
		}
	}
	return qs
}

// measurePerf evaluates the pair's simulated performance at each
// sampled grant: COORD splits the grant, the engine simulates the
// split — the same admission pipeline internal/cluster uses.
func measurePerf(eng *evalpool.Engine, p hw.Platform, w workload.Workload, c *curve, qs []int64) ([]float64, error) {
	reqs := make([]evalpool.Request, len(qs))
	rejected := make([]bool, len(qs))
	for i, q := range qs {
		grant := watts(q)
		switch p.Kind {
		case hw.KindCPU:
			d := coord.CPU(*c.cpuProf, grant)
			if d.Status == coord.StatusTooSmall {
				rejected[i] = true
				continue
			}
			reqs[i] = evalpool.Request{Op: evalpool.OpCPU, Proc: d.Alloc.Proc, Mem: d.Alloc.Mem}
		case hw.KindGPU:
			d := coord.GPU(*c.gpuProf, grant, coord.DefaultGamma)
			if d.Status == coord.StatusTooSmall {
				rejected[i] = true
				continue
			}
			cap := d.Alloc.Total()
			if cap < c.minCap {
				cap = c.minCap
			}
			reqs[i] = evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: cap, Mem: d.Alloc.Mem}
		}
	}
	results, err := eng.EvaluateAll(context.Background(),
		evalpool.Problem{Platform: p, Workload: w}, reqs)
	if err != nil {
		return nil, err
	}
	perfs := make([]float64, len(qs))
	for i := range qs {
		if !rejected[i] {
			perfs[i] = results[i].Perf
		}
	}
	return perfs, nil
}

// concaveEnvelope turns sampled (quanta, perf) points into a concave
// piecewise-linear curve: first a running maximum (more power never
// hurts the model — the perfmax-monotone discipline), then the upper
// concave hull, then per-gap segments with non-increasing slopes.
func concaveEnvelope(qs []int64, perfs []float64) (base float64, segs []segment) {
	pts := make([]struct {
		q int64
		p float64
	}, len(qs))
	run := perfs[0]
	for i := range qs {
		if perfs[i] > run {
			run = perfs[i]
		}
		pts[i].q, pts[i].p = qs[i], run
	}
	// Upper concave hull via a monotone chain over x-sorted points:
	// pop the middle point while the incoming slope does not decrease.
	hull := pts[:1]
	hull = append([]struct {
		q int64
		p float64
	}{}, pts[0])
	for _, pt := range pts[1:] {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// slope(a,b) <= slope(b,pt) means b sags below the chord.
			if (b.p-a.p)*float64(pt.q-b.q) <= (pt.p-b.p)*float64(b.q-a.q) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, pt)
	}
	base = hull[0].p
	for i := 1; i < len(hull); i++ {
		w := hull[i].q - hull[i-1].q
		if w <= 0 {
			continue
		}
		slope := (hull[i].p - hull[i-1].p) / float64(w)
		if slope < 0 {
			slope = 0
		}
		segs = append(segs, segment{width: w, slope: slope})
	}
	return base, segs
}

// Demand sums the spec's productive floors and maximum demands (in
// watts, quantum-aligned). A budget at or above floor sheds nothing; a
// budget at or above max leaves surplus at the root.
func (cs *CurveSet) Demand(spec Spec) (floor, max units.Power, err error) {
	var floorQ, maxQ int64
	for ri := range spec.Racks {
		for ni := range spec.Racks[ri].Nodes {
			c, err := cs.curveFor(&spec.Racks[ri].Nodes[ni])
			if err != nil {
				return 0, 0, err
			}
			floorQ += c.floorQ
			maxQ += c.maxQ
		}
	}
	return watts(floorQ), watts(maxQ), nil
}

// Pairs lists the built classes' pair keys in sorted order
// (diagnostics); a same-named variant is listed under its name again.
func (cs *CurveSet) Pairs() []string {
	var keys []string
	for k, classes := range cs.curves {
		for range classes {
			keys = append(keys, k.String())
		}
	}
	sort.Strings(keys)
	return keys
}
