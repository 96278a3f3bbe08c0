// Package cluster extends node-level power coordination to a
// power-bounded cluster, the setting the paper's introduction motivates:
// a fixed facility power budget must be divided among nodes so that every
// watt contributes to throughput.
//
// The scheduler applies the paper's insights directly:
//   - jobs are admitted only if they can receive at least their productive
//     threshold (P_cpu_L2 + P_mem_L2) — "small power budgets should not be
//     allocated to run new jobs";
//   - no job receives more than its maximum demand — "power over-budgeting
//     wastes power without increasing performance";
//   - within a node, COORD splits the budget across components;
//   - surplus reported by COORD is reclaimed into the pool and used to
//     boost already-admitted jobs toward their maximum demand.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Node is one compute node of the cluster: a CPU server or a GPU card
// host. Jobs are placed only on nodes whose kind matches their workload.
type Node struct {
	// ID names the node, e.g. "node03".
	ID string
	// Platform is the node's hardware.
	Platform hw.Platform
}

// Job is a unit of queued work.
type Job struct {
	// ID names the job.
	ID string
	// Workload is the job's benchmark model.
	Workload workload.Workload
}

// Placement is the scheduler's decision for one admitted job.
type Placement struct {
	JobID  string
	NodeID string
	// Budget is the node power budget granted to the job.
	Budget units.Power
	// Alloc is COORD's cross-component split of the budget.
	Alloc core.Allocation
	// ExpectedPerf is the simulated performance under the allocation.
	ExpectedPerf float64
	// ExpectedPower is the simulated actual power draw.
	ExpectedPower units.Power
}

// Outcome is the result of one scheduling round.
type Outcome struct {
	// Placements lists admitted jobs in placement order.
	Placements []Placement
	// Deferred lists job IDs that could not receive a productive budget
	// (or found no free node) and should wait for the next round.
	Deferred []string
	// PoolLeft is the unallocated cluster power remaining.
	PoolLeft units.Power
	// TotalExpectedPower is the sum of simulated actual draws.
	TotalExpectedPower units.Power
}

// Scheduler owns a cluster power budget and a set of nodes. Its
// scheduling entry points (Schedule, AdmitWaiting, Prewarm,
// RunDemandResponse) are safe for concurrent use, and so are concurrent
// internal/des queue runs on one scheduler: the lazily populated
// profile caches are guarded by a mutex and a singleflight group, so
// concurrent rounds neither race on the maps nor stampede the profiler
// for the same (platform, workload) key.
type Scheduler struct {
	// Budget is the total cluster power bound.
	Budget units.Power
	// Nodes is the machine pool.
	Nodes []Node

	// profMu guards the two profile maps. Profiling itself runs outside
	// the lock, deduplicated by the flight groups: the first caller for
	// a key profiles while every concurrent duplicate waits for its
	// result instead of re-running the profiler.
	profMu      sync.Mutex
	profiles    map[string]profile.CPUProfile
	gpuProfiles map[string]profile.GPUProfile
	cpuFlight   flight.Group[string, profile.CPUProfile]
	gpuFlight   flight.Group[string, profile.GPUProfile]
}

// NewScheduler returns a scheduler for the given budget and nodes.
func NewScheduler(budget units.Power, nodes []Node) (*Scheduler, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("cluster: non-positive budget %v", budget)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	ids := map[string]bool{}
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: node with empty ID")
		}
		if ids[n.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		ids[n.ID] = true
		if err := n.Platform.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %q: %w", n.ID, err)
		}
	}
	return &Scheduler{
		Budget:      budget,
		Nodes:       nodes,
		profiles:    map[string]profile.CPUProfile{},
		gpuProfiles: map[string]profile.GPUProfile{},
	}, nil
}

// profileFor returns (and caches) the job profile on a CPU platform.
// Concurrent callers for the same key share one profiler run.
func (s *Scheduler) profileFor(p hw.Platform, w workload.Workload) (profile.CPUProfile, error) {
	key := p.Name + "/" + w.Name
	s.profMu.Lock()
	if prof, ok := s.profiles[key]; ok {
		s.profMu.Unlock()
		return prof, nil
	}
	s.profMu.Unlock()
	prof, err, _ := s.cpuFlight.Do(key, func() (profile.CPUProfile, error) {
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			return profile.CPUProfile{}, err
		}
		s.profMu.Lock()
		s.profiles[key] = prof
		s.profMu.Unlock()
		return prof, nil
	})
	return prof, err
}

// gpuProfileFor returns (and caches) the job profile on a GPU platform.
// Concurrent callers for the same key share one profiler run.
func (s *Scheduler) gpuProfileFor(p hw.Platform, w workload.Workload) (profile.GPUProfile, error) {
	key := p.Name + "/" + w.Name
	s.profMu.Lock()
	if prof, ok := s.gpuProfiles[key]; ok {
		s.profMu.Unlock()
		return prof, nil
	}
	s.profMu.Unlock()
	prof, err, _ := s.gpuFlight.Do(key, func() (profile.GPUProfile, error) {
		prof, err := profile.ProfileGPU(p, w)
		if err != nil {
			return profile.GPUProfile{}, err
		}
		s.profMu.Lock()
		s.gpuProfiles[key] = prof
		s.profMu.Unlock()
		return prof, nil
	})
	return prof, err
}

// envelope returns the job's power envelope on a node: the smallest
// productive grant and the largest useful one. On GPU nodes the card's
// settable cap range bounds both ends.
func (s *Scheduler) envelope(node Node, w workload.Workload) (threshold, maxTotal units.Power, err error) {
	switch node.Platform.Kind {
	case hw.KindCPU:
		prof, err := s.profileFor(node.Platform, w)
		if err != nil {
			return 0, 0, err
		}
		return prof.Critical.ProductiveThreshold(), prof.Critical.CPUMax + prof.Critical.MemMax, nil
	case hw.KindGPU:
		prof, err := s.gpuProfileFor(node.Platform, w)
		if err != nil {
			return 0, 0, err
		}
		maxTotal := prof.TotMax
		if maxTotal > node.Platform.GPU.MaxCap {
			maxTotal = node.Platform.GPU.MaxCap
		}
		// A job whose maximum board demand sits below the card's lowest
		// settable cap still needs a grant of at least MinCap — the
		// card cannot be capped lower. Without this clamp the envelope
		// inverts (maxTotal < threshold): admission grants maxTotal,
		// the split pass rejects it as below the cap floor, and the
		// round fails on a budget the scheduler itself admitted. COORD
		// returns the unneeded excess as surplus, so the extra watts go
		// back to the pool rather than being wasted.
		if maxTotal < node.Platform.GPU.MinCap {
			maxTotal = node.Platform.GPU.MinCap
		}
		return node.Platform.GPU.MinCap, maxTotal, nil
	default:
		return 0, 0, fmt.Errorf("cluster: node %q: unknown kind", node.ID)
	}
}

// split divides a grant across the node's components with COORD and
// reports any surplus to return to the pool. ok is false when the grant
// is below the job's productive threshold.
func (s *Scheduler) split(node Node, w workload.Workload, grant units.Power) (alloc core.Allocation, surplus units.Power, ok bool, err error) {
	switch node.Platform.Kind {
	case hw.KindCPU:
		prof, err := s.profileFor(node.Platform, w)
		if err != nil {
			return core.Allocation{}, 0, false, err
		}
		d := coord.CPU(prof, grant)
		if d.Status == coord.StatusTooSmall {
			return core.Allocation{}, 0, false, nil
		}
		if d.Status == coord.StatusSurplus {
			surplus = d.Surplus
		}
		return d.Alloc, surplus, true, nil
	case hw.KindGPU:
		if grant < node.Platform.GPU.MinCap {
			return core.Allocation{}, 0, false, nil
		}
		prof, err := s.gpuProfileFor(node.Platform, w)
		if err != nil {
			return core.Allocation{}, 0, false, err
		}
		d := coord.GPU(prof, grant, coord.DefaultGamma)
		if d.Status == coord.StatusTooSmall {
			// Algorithm 2 rejects budgets at or below the memory power
			// floor; surface that as a non-productive grant instead of
			// returning a zero allocation as if it were admitted.
			return core.Allocation{}, 0, false, nil
		}
		if d.Status == coord.StatusSurplus {
			surplus = d.Surplus
		}
		return d.Alloc, surplus, true, nil
	default:
		return core.Allocation{}, 0, false, fmt.Errorf("cluster: node %q: unknown kind", node.ID)
	}
}

// simulate runs the job under its allocation on the node. Planning goes
// through the shared evaluation engine: re-planning rounds and repeated
// job mixes re-simulate nothing the cache already holds. Queue runs
// admit through here too, fault-injected ones included: node outages
// and budget shocks change when and where a job runs, never what the
// simulator answers for a given allocation, so the memo stays exact.
func (s *Scheduler) simulate(node Node, w *workload.Workload, alloc core.Allocation) (sim.Result, error) {
	pr := evalpool.Problem{Platform: node.Platform, Workload: *w}
	switch node.Platform.Kind {
	case hw.KindCPU:
		return evalpool.Default().Evaluate(pr, evalpool.Request{
			Op: evalpool.OpCPU, Proc: alloc.Proc, Mem: alloc.Mem})
	case hw.KindGPU:
		// The card cannot be capped below its floor: a job whose demand
		// sits under MinCap still runs with the cap register at MinCap
		// and simply draws less.
		cap := alloc.Total()
		if cap < node.Platform.GPU.MinCap {
			cap = node.Platform.GPU.MinCap
		}
		return evalpool.Default().Evaluate(pr, evalpool.Request{
			Op: evalpool.OpGPUMemPower, Proc: cap, Mem: alloc.Mem})
	default:
		return sim.Result{}, fmt.Errorf("cluster: node %q: unknown kind", node.ID)
	}
}

// findNode returns the index of the first free node whose kind matches
// the workload, or -1 when none exists. Admission looks the node up
// first and removes it — in place, order preserved — only once the job
// is actually admitted, so a job the pool blocks costs no copy.
func findNode(free []Node, kind hw.Kind) int {
	for i := range free {
		if free[i].Platform.Kind == kind {
			return i
		}
	}
	return -1
}

// Schedule runs one scheduling round over the queued jobs. Jobs are
// considered in queue order; each takes the next free node. A job is
// admitted if the pool can cover at least its productive threshold; it is
// granted up to its maximum demand. After the admission pass, leftover
// pool power is distributed to admitted jobs still below their maximum
// demand (largest marginal headroom first).
func (s *Scheduler) Schedule(jobs []Job) (Outcome, error) {
	out := Outcome{PoolLeft: s.Budget}
	freeNodes := append([]Node(nil), s.Nodes...)

	type admitted struct {
		idx      int
		node     Node
		maxTotal units.Power
	}
	var adm []admitted

	for _, job := range jobs {
		ni := findNode(freeNodes, job.Workload.Kind)
		if ni < 0 {
			out.Deferred = append(out.Deferred, job.ID)
			continue
		}
		node := freeNodes[ni]
		threshold, maxTotal, err := s.envelope(node, job.Workload)
		if err != nil {
			return Outcome{}, fmt.Errorf("cluster: job %q: %w", job.ID, err)
		}
		if out.PoolLeft < threshold {
			// Paper: a budget this small delivers unacceptable performance
			// and efficiency; defer rather than waste the power.
			out.Deferred = append(out.Deferred, job.ID)
			continue
		}
		grant := out.PoolLeft
		if grant > maxTotal {
			grant = maxTotal
		}
		out.PoolLeft -= grant
		freeNodes = append(freeNodes[:ni], freeNodes[ni+1:]...)
		out.Placements = append(out.Placements, Placement{
			JobID:  job.ID,
			NodeID: node.ID,
			Budget: grant,
		})
		adm = append(adm, admitted{
			idx: len(out.Placements) - 1, node: node, maxTotal: maxTotal,
		})
	}

	// Boost pass: hand leftover power to admitted jobs below their
	// maximum demand, largest gap first.
	sort.SliceStable(adm, func(i, j int) bool {
		gapI := adm[i].maxTotal - out.Placements[adm[i].idx].Budget
		gapJ := adm[j].maxTotal - out.Placements[adm[j].idx].Budget
		return gapI > gapJ
	})
	for _, a := range adm {
		if out.PoolLeft <= 0 {
			break
		}
		pl := &out.Placements[a.idx]
		gap := a.maxTotal - pl.Budget
		if gap <= 0 {
			continue
		}
		boost := gap
		if boost > out.PoolLeft {
			boost = out.PoolLeft
		}
		pl.Budget += boost
		out.PoolLeft -= boost
	}

	// Split each grant with COORD, reclaim surplus, and simulate.
	for _, a := range adm {
		pl := &out.Placements[a.idx]
		w := jobWorkload(jobs, pl.JobID)
		alloc, surplus, ok, err := s.split(a.node, *w, pl.Budget)
		if err != nil {
			return Outcome{}, err
		}
		if !ok {
			// Cannot happen given the admission check, but keep the
			// invariant explicit.
			return Outcome{}, fmt.Errorf("cluster: job %q: COORD rejected admitted budget %v",
				pl.JobID, pl.Budget)
		}
		if surplus > 0 {
			out.PoolLeft += surplus
			pl.Budget -= surplus
		}
		pl.Alloc = alloc
		res, err := s.simulate(a.node, w, alloc)
		if err != nil {
			return Outcome{}, err
		}
		pl.ExpectedPerf = res.Perf
		pl.ExpectedPower = res.TotalPower
		out.TotalExpectedPower += res.TotalPower
	}
	return out, nil
}

func jobWorkload(jobs []Job, id string) *workload.Workload {
	for i := range jobs {
		if jobs[i].ID == id {
			return &jobs[i].Workload
		}
	}
	return nil
}

// Validate checks an outcome against the cluster bound: the sum of
// granted budgets never exceeds the scheduler's budget, and the simulated
// actual power respects it too.
func (s *Scheduler) Validate(out Outcome) error {
	var granted units.Power
	for _, pl := range out.Placements {
		granted += pl.Budget
	}
	if granted > s.Budget+0.01 {
		return fmt.Errorf("cluster: granted %v exceeds budget %v", granted, s.Budget)
	}
	if out.TotalExpectedPower > s.Budget+units.Power(len(out.Placements)) {
		return fmt.Errorf("cluster: expected power %v exceeds budget %v",
			out.TotalExpectedPower, s.Budget)
	}
	return nil
}
