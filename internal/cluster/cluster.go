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
//   - surplus reported by COORD is reclaimed into the pool. A Schedule
//     round returns it after all of the round's admission decisions,
//     and Admit at once; neither raises the grant of a job already
//     admitted.
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/profile"
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
// scheduling entry points (Schedule, Admit, Prewarm) are safe for
// concurrent use, and so are concurrent internal/des queue runs on one
// scheduler, demand-response ones included: the scheduler holds no
// mutable state. Job profiles come from the profile package, which
// memoizes each one on the shared evaluation engine by the content of
// the (platform, workload) pair, so a pair is profiled once however
// many jobs, rounds or schedulers ask for it; placements are memoized
// the same way (see place).
type Scheduler struct {
	// Budget is the total cluster power bound.
	Budget units.Power
	// Nodes is the machine pool.
	Nodes []Node
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
	return &Scheduler{Budget: budget, Nodes: nodes}, nil
}

// envelope returns the job's power envelope on a node: the smallest
// productive grant and the largest useful one. On GPU nodes the card's
// settable cap range bounds both ends.
func (s *Scheduler) envelope(node Node, w workload.Workload) (threshold, maxTotal units.Power, err error) {
	switch node.Platform.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(node.Platform, w)
		if err != nil {
			return 0, 0, err
		}
		return prof.Critical.ProductiveThreshold(), prof.Critical.CPUMax + prof.Critical.MemMax, nil
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(node.Platform, w)
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

// placement is one job placed on a node at a grant: the split of the
// grant, the surplus to return to the pool, and what the callers read
// of the job's simulated run under the split. ok is false when the
// grant is below the job's productive threshold; nothing is simulated
// then.
type placement struct {
	alloc   core.Allocation
	surplus units.Power
	ok      bool
	perf    float64
	power   units.Power
	rate    units.Rate
}

// placeKinds names each split policy's placements in the memo.
var placeKinds = [...]string{PolicyCoord: "cluster.place.coord", PolicyEvenSplit: "cluster.place.even"}

// place splits grant across the node's components by policy — COORD,
// or the even split on CPU nodes — and simulates the job under the
// split. A placement is a pure function of the node's platform, the
// workload, the grant and the policy, so it is memoized whole on the
// shared evaluation engine: rounds and admissions that place a pair at
// a grant it was placed at before read it back. Queue runs admit
// through here too, fault-injected and budget-scheduled ones included:
// outages, shocks and budget steps change when and where a job runs,
// never what a placement answers, so the memo stays exact.
func (s *Scheduler) place(node Node, w workload.Workload, grant units.Power, policy SplitPolicy) (placement, error) {
	switch {
	case policy != PolicyCoord && policy != PolicyEvenSplit:
		return placement{}, fmt.Errorf("cluster: unknown split policy %v", policy)
	case policy == PolicyEvenSplit && node.Platform.Kind != hw.KindCPU:
		return placement{}, ErrEvenSplitGPU
	}
	b := evalpool.Default().Bind(evalpool.Problem{Platform: node.Platform, Workload: w})
	return evalpool.Derive(b, placeKinds[policy], grant.Watts(), func() (placement, error) {
		pl, req, err := s.split(node, w, grant, policy)
		if err != nil || !pl.ok {
			return placement{}, err
		}
		res, err := b.Evaluate(req)
		if err != nil {
			return placement{}, err
		}
		pl.perf, pl.power, pl.rate = res.Perf, res.TotalPower, res.UnitRate
		return pl, nil
	})
}

// split divides a grant across the node's components by policy and
// returns the split, its surplus and the simulator request that runs
// the job under it. ok is false when the grant is below the job's
// productive threshold.
func (s *Scheduler) split(node Node, w workload.Workload, grant units.Power, policy SplitPolicy) (placement, evalpool.Request, error) {
	var d coord.Decision
	switch node.Platform.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(node.Platform, w)
		if err != nil {
			return placement{}, evalpool.Request{}, err
		}
		if policy == PolicyEvenSplit {
			d = coord.EvenSplit(prof, grant)
		} else {
			d = coord.CPU(prof, grant)
		}
	case hw.KindGPU:
		if grant < node.Platform.GPU.MinCap {
			return placement{}, evalpool.Request{}, nil
		}
		prof, err := profile.ProfileGPU(node.Platform, w)
		if err != nil {
			return placement{}, evalpool.Request{}, err
		}
		d = coord.GPU(prof, grant, coord.DefaultGamma)
	default:
		return placement{}, evalpool.Request{}, fmt.Errorf("cluster: node %q: unknown kind", node.ID)
	}
	if d.Status == coord.StatusTooSmall {
		// A split rejects budgets below the job's productive threshold
		// (Algorithm 2: at or below the memory power floor); surface
		// that as a non-productive grant instead of returning a zero
		// allocation as if it were admitted.
		return placement{}, evalpool.Request{}, nil
	}
	pl := placement{alloc: d.Alloc, ok: true}
	if d.Status == coord.StatusSurplus {
		pl.surplus = d.Surplus
	}
	req := evalpool.Request{Op: evalpool.OpCPU, Proc: d.Alloc.Proc, Mem: d.Alloc.Mem}
	if node.Platform.Kind == hw.KindGPU {
		// The card cannot be capped below its floor: a job whose demand
		// sits under MinCap still runs with the cap register at MinCap
		// and simply draws less.
		req = evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: max(d.Alloc.Total(), node.Platform.GPU.MinCap), Mem: d.Alloc.Mem}
	}
	return pl, req, nil
}

// Schedule runs one scheduling round over the queued jobs. Jobs are
// considered in queue order; each takes the next free node. A job is
// admitted if the pool can cover at least its productive threshold; it is
// granted up to its maximum demand. Each grant is the smaller of the two,
// so the first job granted less than its maximum demand empties the
// pool: no admitted job is left below its maximum demand while power
// remains. COORD then places each grant, and its surplus returns to the
// pool.
func (s *Scheduler) Schedule(jobs []Job) (Outcome, error) {
	out := Outcome{PoolLeft: s.Budget}
	freeNodes := append([]Node(nil), s.Nodes...)

	type admitted struct {
		idx  int
		node Node
	}
	var adm []admitted

	for _, job := range jobs {
		// The first free node of the job's kind; it is removed only once
		// the job is admitted, so a job the pool blocks costs no copy.
		ni := slices.IndexFunc(freeNodes, func(n Node) bool { return n.Platform.Kind == job.Workload.Kind })
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
		adm = append(adm, admitted{idx: len(out.Placements) - 1, node: node})
	}

	// Place each grant with COORD and reclaim surplus.
	for _, a := range adm {
		pl := &out.Placements[a.idx]
		p, err := s.place(a.node, *jobWorkload(jobs, pl.JobID), pl.Budget, PolicyCoord)
		if err != nil {
			return Outcome{}, err
		}
		if !p.ok {
			// Cannot happen given the admission check, but keep the
			// invariant explicit.
			return Outcome{}, fmt.Errorf("cluster: job %q: COORD rejected admitted budget %v",
				pl.JobID, pl.Budget)
		}
		if p.surplus > 0 {
			out.PoolLeft += p.surplus
			pl.Budget -= p.surplus
		}
		pl.Alloc = p.alloc
		pl.ExpectedPerf = p.perf
		pl.ExpectedPower = p.power
		out.TotalExpectedPower += p.power
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
