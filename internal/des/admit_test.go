package des

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestOneJobEqualsSim: the engine adds queueing, never physics. A
// 1-node, 1-job run in either mode reproduces, bit for bit, makespan =
// units / rate and energy = power × makespan, where rate and power are
// what sim.Run gives at the split Scheduler.Admit makes of the budget.
// The budgets sit below each pair's saturation point, so the grant is
// the whole budget.
func TestOneJobEqualsSim(t *testing.T) {
	cases := []struct {
		platform, workload string
		budget             units.Power
		policy             cluster.SplitPolicy
	}{
		{"ivybridge", "stream", 200, cluster.PolicyCoord},
		{"ivybridge", "stream", 200, cluster.PolicyEvenSplit},
		{"titanxp", "sgemm", 200, cluster.PolicyCoord},
	}
	const work = 1e12
	for _, c := range cases {
		t.Run(c.platform+"/"+c.workload+"/"+c.policy.String(), func(t *testing.T) {
			p, err := hw.PlatformByName(c.platform)
			if err != nil {
				t.Fatal(err)
			}
			w := mustWorkload(t, c.workload)
			node := cluster.Node{ID: "n0", Platform: p}
			s, err := cluster.NewScheduler(c.budget, []cluster.Node{node})
			if err != nil {
				t.Fatal(err)
			}
			a, sat, ok, err := s.Admit(node, cluster.Job{Workload: w}, c.budget, c.policy)
			if err != nil || !ok {
				t.Fatalf("Admit at %v: ok %v, err %v", c.budget, ok, err)
			}
			if sat <= c.budget {
				t.Fatalf("budget %v not below the saturation point %v", c.budget, sat)
			}
			var alloc core.Allocation
			var res sim.Result
			if p.Kind == hw.KindGPU {
				prof, err := profile.ProfileGPU(p, w)
				if err != nil {
					t.Fatal(err)
				}
				alloc = coord.GPU(prof, c.budget, coord.DefaultGamma).Alloc
				res, err = sim.RunGPUMemPower(p, &w, max(alloc.Total(), p.GPU.MinCap), alloc.Mem)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				prof, err := profile.ProfileCPU(p, w)
				if err != nil {
					t.Fatal(err)
				}
				d := coord.CPU(prof, c.budget)
				if c.policy == cluster.PolicyEvenSplit {
					d = coord.EvenSplit(prof, c.budget)
				}
				alloc = d.Alloc
				res, err = sim.RunCPU(p, &w, alloc.Proc, alloc.Mem)
				if err != nil {
					t.Fatal(err)
				}
			}
			rate, power := res.UnitRate.OpsPerSecond(), res.TotalPower
			if a.Rate != rate || a.Power != power {
				t.Fatalf("Admit rate %v power %v; sim.Run at split %+v: rate %v power %v", a.Rate, a.Power, alloc, rate, power)
			}
			makespan := work / rate
			energy := units.Energy(power.Watts() * makespan)
			for _, mode := range []Mode{ModeExact, ModeFast} {
				out, err := Run(Config{
					Sched: s, Workload: w, Policy: c.policy, Mode: mode,
					Jobs: []cluster.TimedJob{{Job: cluster.Job{ID: "j0", Workload: w}, Units: work}},
				})
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if out.Completed != 1 || out.Makespan != makespan || out.Energy != energy {
					t.Errorf("%v: completed %d, makespan %v, energy %v; want 1, %v (units/rate), %v (power × makespan)",
						mode, out.Completed, out.Makespan, out.Energy, makespan, energy)
				}
			}
		})
	}
}

// TestSameNameWorkloadsAdmittedApart: two t=0 jobs whose workloads
// share a name but differ in one parameter get their own admissions in
// exact mode. The admission cache keys workloads by content: keyed by
// name, the second job would take the first one's cached grant, power
// and rate. The pool saturates both jobs, so each decision must equal a
// direct Admit at any pool above its saturation point.
func TestSameNameWorkloadsAdmittedApart(t *testing.T) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w := mustWorkload(t, "stream")
	v := w.Clone()
	v.Phases[0].BytesPerUnit *= 2
	nodes := []cluster.Node{{ID: "n0", Platform: p}, {ID: "n1", Platform: p}}
	s, err := cluster.NewScheduler(2000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []cluster.TimedJob{
		{Job: cluster.Job{ID: "j0", Workload: w}, Units: 1e12},
		{Job: cluster.Job{ID: "j1", Workload: v}, Units: 1e12},
	}
	res, err := Run(Config{Sched: s, Policy: cluster.PolicyCoord, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	var got [2]cluster.Admission
	for i, j := range jobs {
		st := res.Queue.Stats[j.ID]
		if st.Start != 0 {
			t.Fatalf("%s started at %v, want both jobs at t=0", j.ID, st.Start)
		}
		want, _, ok, err := s.Admit(nodes[i], j.Job, 1e6, cluster.PolicyCoord)
		if err != nil || !ok {
			t.Fatalf("Admit %s: ok %v, err %v", j.ID, ok, err)
		}
		got[i] = cluster.Admission{Budget: st.Budget, Power: st.Power, Rate: st.Rate}
		if got[i] != want {
			t.Errorf("%s admitted with %+v, want %+v", j.ID, got[i], want)
		}
	}
	if got[0] == got[1] {
		t.Errorf("same-named workloads got the same admission %+v", got[0])
	}
}
