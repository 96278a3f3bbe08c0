package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/allocsvc"
	"repro/internal/coord"
)

// genReq is one generated request: its arrival time in a unit-rate
// arrival process (divide by the offered rate to get seconds) and its
// body for exactly one route.
type genReq struct {
	At       float64                   `json:"at"`
	Route    string                    `json:"route"`
	Coord    *allocsvc.CoordRequest    `json:"coord,omitempty"`
	Plan     *allocsvc.PlanRequest     `json:"plan,omitempty"`
	Schedule *allocsvc.ScheduleRequest `json:"schedule,omitempty"`
	Tree     *allocsvc.TreeRequest     `json:"tree,omitempty"`
	Recoord  *allocsvc.RecoordRequest  `json:"recoord,omitempty"`
}

// newRand returns the generator for one phase of one seed. Phases use
// distinct streams so a probe never replays the nominal phase.
func newRand(seed uint64, phase int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(phase)))
}

// tabledPair is a fastpath pair with its tabulated budget ranges,
// measured from the pair's decision tables (coord: rejection threshold
// to saturation point; plan: the plan table's range). Plan is CPU-only.
type tabledPair struct {
	platform, workload string
	coordLo, coordHi   float64
	planLo, planHi     float64
}

// fastPairs lists the fastpath traffic in popularity order (rank 1
// first). It spans both CPUs, both Titans and the H100, and includes
// haswell/sp, one of the slowest tables to build.
var fastPairs = []tabledPair{
	{"ivybridge", "stream", 175.35, 218.53, 114, 218.53},
	{"h100", "llmchat", 200, 322.54, 0, 0},
	{"haswell", "sp", 164.24, 243.24, 88, 243.24},
	{"titanxp", "gpustream", 125, 148.0, 0, 0},
	{"ivybridge", "is", 174.82, 222.42, 114, 222.42},
	{"h100", "hpcg", 200, 319.0, 0, 0},
	{"haswell", "cg", 155.91, 208.06, 88, 208.06},
	{"titanv", "llmserve", 100, 106.68, 0, 0},
	{"titanxp", "hpcg", 125, 162.56, 0, 0},
	{"titanxp", "llmchat", 125, 167.54, 0, 0},
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	for i, c := range z.cdf {
		if u < c {
			return i
		}
	}
	return len(z.cdf) - 1
}

// uniformIn draws a budget strictly inside [lo, hi].
func uniformIn(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*(0.001+0.998*r.Float64())
}

// genFastpath generates n fastpath requests: Poisson arrivals, 80%
// coord over every pair and 20% plan over the CPU pairs, Zipf pair
// popularity, budgets continuous inside each pair's tabulated range.
func genFastpath(seed uint64, phase, n int) []genReq {
	r := newRand(seed, phase)
	all := newZipf(len(fastPairs), 1.1)
	var cpu []int
	for i, p := range fastPairs {
		if p.planHi > 0 {
			cpu = append(cpu, i)
		}
	}
	cpuZ := newZipf(len(cpu), 1.1)
	out := make([]genReq, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64()
		out[i].At = t
		if r.Float64() < 0.8 {
			p := fastPairs[all.draw(r)]
			out[i].Route = allocsvc.RouteCoord
			out[i].Coord = &allocsvc.CoordRequest{Platform: p.platform, Workload: p.workload,
				Budget: uniformIn(r, p.coordLo, p.coordHi), Strategy: "coord"}
		} else {
			p := fastPairs[cpu[cpuZ.draw(r)]]
			out[i].Route = allocsvc.RoutePlan
			out[i].Plan = &allocsvc.PlanRequest{Platform: p.platform, Workload: p.workload,
				Budget: uniformIn(r, p.planLo, p.planHi)}
		}
	}
	return out
}

// mixPair is an exact-mix coord/plan pair with its budget grid: budgets
// are lo + k*step for k in [0, steps), so keys repeat.
type mixPair struct {
	platform, workload string
	gpu                bool
	lo, step           float64
	steps              int
}

var mixPairs = []mixPair{
	{"ivybridge", "stream", false, 120, 2, 60},
	{"ivybridge", "dgemm", false, 120, 2, 60},
	{"ivybridge", "ft", false, 120, 2, 60},
	{"ivybridge", "mg", false, 120, 2, 60},
	{"haswell", "stream", false, 110, 2, 70},
	{"haswell", "lu", false, 110, 2, 70},
	{"haswell", "ep", false, 110, 2, 70},
	{"titanxp", "sgemm", true, 125, 2.5, 50},
	{"titanv", "cufft", true, 100, 2.5, 60},
	{"h100", "llmserve", true, 200, 10, 50},
	{"h200", "hpcg", true, 200, 10, 50},
}

// recoordPairs are the phased LLM workloads on the H100-class cards.
var recoordPairs = [][2]string{
	{"h100", "llmserve"}, {"h100", "llmchat"}, {"h100", "llmbatch"},
	{"h200", "llmserve"}, {"h200", "llmchat"}, {"h200", "llmbatch"},
}

var (
	cpuPlatforms = []string{"ivybridge", "haswell"}
	cpuWorkloads = []string{"stream", "dgemm", "ft", "mg", "cg", "ep", "is", "lu"}
	treeLeaves   = [][2]string{
		{"ivybridge", "stream"}, {"ivybridge", "dgemm"}, {"haswell", "cg"},
		{"haswell", "ft"}, {"titanxp", "sgemm"}, {"h100", "llmserve"},
	}
)

// exactRoutes is the exact-mix traffic's composition per 1000 requests.
// The weights follow one rule: every route takes an equal share of the
// shards' server time, so no route's layers hide behind another's. They
// are the fixed point of calibrateMix on a 2-vCPU host, measured when
// the benchmark was defined (README.md has the figures); run.sh
// --calibrate-mix re-checks them.
var exactRoutes = []struct {
	route  string
	weight int
}{
	{allocsvc.RouteCoord, 518},
	{allocsvc.RoutePlan, 257},
	{allocsvc.RouteSchedule, 127},
	{allocsvc.RouteTree, 11},
	{allocsvc.RouteRecoord, 87},
}

// exactDupPer100 is how many of every 100 requests are re-sent at once
// (same due time), as node agents re-asking after a budget change. No
// trace fixes the share; it is a choice, large enough that coalescing
// shows in every phase.
const exactDupPer100 = 15

// exactRouteOrder interleaves the routes by smooth weighted round
// robin, so heavy requests (trees, recoord runs) are spread evenly
// instead of clumping.
func exactRouteOrder(n int) []string {
	total := 0
	for _, r := range exactRoutes {
		total += r.weight
	}
	cur := make([]int, len(exactRoutes))
	out := make([]string, n)
	for i := range out {
		best := 0
		for j, r := range exactRoutes {
			cur[j] += r.weight
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = exactRoutes[best].route
	}
	return out
}

// genExactMix generates n exact-mix requests over all five routes at
// evenly spaced due times. The sequence of routes and duplicates is the
// same for every seed — two seeds differ in which pairs, budgets,
// clusters and trees they ask about, not in how much heavy work they
// send or how it clumps. Budgets sit on per-pair grids so keys repeat,
// and trees cycle through 64, 128 and 256 leaves.
func genExactMix(seed uint64, phase, n int) []genReq {
	r := newRand(seed, phase)
	cpuStrats, gpuStrats := strategyNames()
	var cpuPairs []mixPair
	for _, p := range mixPairs {
		if !p.gpu {
			cpuPairs = append(cpuPairs, p)
		}
	}
	out := make([]genReq, 0, n)
	trees := 0
	for i, route := range exactRouteOrder(n) {
		// One arrival slot per request: a duplicate shares its
		// original's due time and the next original skips its slot, so
		// the stream's request rate is the offered rate.
		g := genReq{At: float64(len(out)), Route: route}
		switch route {
		case allocsvc.RouteCoord:
			p := mixPairs[r.IntN(len(mixPairs))]
			st := cpuStrats[r.IntN(len(cpuStrats))]
			if p.gpu {
				st = gpuStrats[r.IntN(len(gpuStrats))]
			}
			g.Coord = &allocsvc.CoordRequest{Platform: p.platform, Workload: p.workload,
				Budget: p.lo + p.step*float64(r.IntN(p.steps)), Strategy: st}
		case allocsvc.RoutePlan:
			p := cpuPairs[r.IntN(len(cpuPairs))]
			g.Plan = &allocsvc.PlanRequest{Platform: p.platform, Workload: p.workload,
				Budget: p.lo + p.step*float64(r.IntN(p.steps))}
		case allocsvc.RouteSchedule:
			g.Schedule = genSchedule(r)
		case allocsvc.RouteTree:
			g.Tree = genTree([]int{64, 128, 256}[trees%3], r.IntN(4))
			trees++
		case allocsvc.RouteRecoord:
			p := recoordPairs[r.IntN(len(recoordPairs))]
			g.Recoord = &allocsvc.RecoordRequest{Platform: p[0], Workload: p[1],
				Budget: 200 + 25*float64(r.IntN(21))}
		}
		out = append(out, g)
		if len(out) < n && (i+1)*exactDupPer100/100 > i*exactDupPer100/100 {
			out = append(out, g)
		}
		if len(out) >= n {
			break
		}
	}
	return out
}

func strategyNames() (cpu, gpu []string) {
	for _, s := range coord.CPUStrategies() {
		cpu = append(cpu, s.Name)
	}
	for _, s := range coord.GPUStrategies() {
		gpu = append(gpu, s.Name)
	}
	return cpu, gpu
}

// genSchedule draws one scheduling round on one of eight cluster
// shapes of 2–16 CPU nodes (so the service's scheduler cache is reused)
// with a fresh queue of jobs.
func genSchedule(r *rand.Rand) *allocsvc.ScheduleRequest {
	shape := r.IntN(8)
	nodes := 2 + 2*shape
	req := &allocsvc.ScheduleRequest{
		Budget: float64(nodes) * (150 + 10*float64(r.IntN(6))),
	}
	for i := 0; i < nodes; i++ {
		req.Nodes = append(req.Nodes, allocsvc.NodeJSON{
			ID: fmt.Sprintf("n%02d", i), Platform: cpuPlatforms[(i+shape)%2]})
	}
	jobs := 1 + r.IntN(nodes+4)
	for j := 0; j < jobs; j++ {
		req.Jobs = append(req.Jobs, allocsvc.JobJSON{
			ID: fmt.Sprintf("j%02d", j), Workload: cpuWorkloads[r.IntN(len(cpuWorkloads))]})
	}
	return req
}

// genTree builds a budget tree of leaves nodes in racks of 16, from a
// fixed layout (so tree keys repeat across requests) at one of four
// provisioning levels.
func genTree(leaves, level int) *allocsvc.TreeRequest {
	req := &allocsvc.TreeRequest{Budget: float64(leaves) * (130 + 20*float64(level))}
	for k := 0; k < leaves/16; k++ {
		rack := allocsvc.TreeRackJSON{ID: fmt.Sprintf("r%03d", k)}
		if k%4 == 3 {
			rack.CapWatts = 16 * 150
		}
		for j := 0; j < 16; j++ {
			i := 16*k + j
			pw := treeLeaves[(i*7+k)%len(treeLeaves)]
			rack.Nodes = append(rack.Nodes, allocsvc.TreeNodeJSON{
				ID: fmt.Sprintf("%s-%02d", rack.ID, j), Platform: pw[0], Workload: pw[1], Priority: i % 3})
		}
		req.Racks = append(req.Racks, rack)
	}
	return req
}
