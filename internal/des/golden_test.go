package des

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from exact mode")

// goldenFaultSpec exercises node outages, recoveries, and budget shocks
// in the golden runs — the same scenario the pbc faults cluster demo
// uses.
const goldenFaultSpec = "node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10"

// goldenCase is one frozen queue run: t=0 jobs on a fixed cluster,
// optionally disturbed by a seeded fault spec.
type goldenCase struct {
	name   string
	sched  *cluster.Scheduler
	jobs   []cluster.TimedJob
	policy cluster.SplitPolicy
	disc   cluster.Discipline
	spec   string // fault spec; "" runs without an injector
	seed   uint64
}

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return w
}

// mixJobs builds t=0 jobs from (workload, units) pairs, named job00….
func mixJobs(t *testing.T, spec ...any) []cluster.TimedJob {
	t.Helper()
	var jobs []cluster.TimedJob
	for i := 0; i < len(spec); i += 2 {
		jobs = append(jobs, cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%02d", len(jobs)), Workload: mustWorkload(t, spec[i].(string))},
			Units: spec[i+1].(float64),
		})
	}
	return jobs
}

func mixSched(t *testing.T, budget units.Power, platforms ...string) *cluster.Scheduler {
	t.Helper()
	nodes := make([]cluster.Node, len(platforms))
	for i, name := range platforms {
		p, err := hw.PlatformByName(name)
		if err != nil {
			t.Fatalf("platform: %v", err)
		}
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
	}
	s, err := cluster.NewScheduler(budget, nodes)
	if err != nil {
		t.Fatalf("scheduler: %v", err)
	}
	return s
}

// cpuMixCase is a mixed CPU workload queue on a tight pool over two
// platforms, so jobs wait, backfill and FIFO diverge, and COORD and
// even-split grant differently.
func cpuMixCase(t *testing.T, name string, policy cluster.SplitPolicy, disc cluster.Discipline) goldenCase {
	return goldenCase{
		name:  name,
		sched: mixSched(t, 420, "ivybridge", "ivybridge", "haswell"),
		jobs: mixJobs(t,
			"dgemm", 5e13, "mg", 4e12, "stream", 3e12, "ep", 1e13,
			"cg", 1.5e12, "bt", 2e13, "sra", 2e9, "ft", 5e12),
		policy: policy, disc: disc,
	}
}

// streamCase is the pbc faults cluster demo's shape: three ivybridge
// nodes at 208 W each running stream jobs.
func streamCase(t *testing.T, name, spec string, seed uint64) goldenCase {
	sched, w := testSched(t, 3)
	return goldenCase{
		name: name, sched: sched, jobs: testJobs(w, 6, 2e12),
		policy: cluster.PolicyCoord, disc: cluster.DisciplineBackfill,
		spec: spec, seed: seed,
	}
}

// renderGolden prints a queue run exactly: every float as its IEEE-754
// bits, events in result order, stats in job-ID order, the fault
// summary, and the transition log text. A starved run records only the
// sentinel, since the partial state at the point of starvation is not
// part of the contract.
func renderGolden(q *cluster.QueueResult, f FaultSummary, log *trace.EventLog, err error) string {
	var b strings.Builder
	if err != nil {
		if errors.Is(err, cluster.ErrStarved) {
			return "error cluster.ErrStarved\n"
		}
		return fmt.Sprintf("error %v\n", err)
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	fmt.Fprintf(&b, "makespan %s %.6f\n", bits(q.Makespan), q.Makespan)
	fmt.Fprintf(&b, "energy %s %.3f\n", bits(q.Energy.Joules()), q.Energy.Joules())
	for _, e := range q.Events {
		fmt.Fprintf(&b, "event %s %-7s %-6s %s\n", bits(e.Time), e.Kind, e.JobID, e.NodeID)
	}
	ids := make([]string, 0, len(q.Stats))
	for id := range q.Stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := q.Stats[id]
		fmt.Fprintf(&b, "stat %s start=%s end=%s budget=%s power=%s rate=%s\n", id,
			bits(st.Start), bits(st.End), bits(st.Budget.Watts()), bits(st.Power.Watts()), bits(st.Rate))
	}
	fmt.Fprintf(&b, "faults failures=%d recoveries=%d readmissions=%d shocks=%d\n",
		f.NodeFailures, f.NodeRecoveries, f.Readmissions, f.Shocks)
	fmt.Fprintf(&b, "faults reclaimed=%s poolleft=%s maxconservation=%s\n",
		bits(f.BudgetReclaimed.Watts()), bits(f.PoolLeft.Watts()), bits(f.MaxConservationError.Watts()))
	b.WriteString("log\n")
	b.WriteString(log.String())
	return b.String()
}

// checkGolden runs c through exact mode and compares the rendering with
// testdata/<name>.golden; -update rewrites the file instead.
func checkGolden(t *testing.T, c goldenCase) Result {
	t.Helper()
	log := &trace.EventLog{}
	cfg := Config{
		Sched: c.sched, Policy: c.policy, Discipline: c.disc,
		Jobs: c.jobs, Mode: ModeExact, Log: log,
	}
	if c.spec != "" {
		sp, err := faults.ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		cfg.Injector = faults.NewInjector(sp, c.seed)
	}
	res, err := Run(cfg)
	if err == nil && res.Queue == nil {
		t.Fatal("exact mode returned no queue result")
	}
	got := renderGolden(res.Queue, res.Faults, log, err)
	path := filepath.Join("testdata", c.name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", rerr)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
	return res
}

// TestGoldenEquivalenceFaultFree pins exact mode to the frozen output
// of the former fault-free round loop: same events, stats, makespan and
// energy bits across policies, disciplines, CPU and GPU nodes, and the
// starvation sentinel.
func TestGoldenEquivalenceFaultFree(t *testing.T) {
	cases := []goldenCase{
		cpuMixCase(t, "coord-backfill", cluster.PolicyCoord, cluster.DisciplineBackfill),
		cpuMixCase(t, "coord-fifo", cluster.PolicyCoord, cluster.DisciplineFIFO),
		cpuMixCase(t, "evensplit-backfill", cluster.PolicyEvenSplit, cluster.DisciplineBackfill),
		cpuMixCase(t, "evensplit-fifo", cluster.PolicyEvenSplit, cluster.DisciplineFIFO),
		{
			name:  "mixed-cpu-gpu",
			sched: mixSched(t, 900, "ivybridge", "titanxp", "haswell", "titanv"),
			jobs: mixJobs(t,
				"stream", 3e12, "sgemm", 1e15, "dgemm", 5e13, "minife", 1e14,
				"mg", 4e12, "cufft", 1e14, "gpustream", 5e12, "ep", 1e13),
			policy: cluster.PolicyCoord, disc: cluster.DisciplineBackfill,
		},
		{
			// The GPU job has no GPU node: it starves once the CPU job
			// finishes.
			name:   "starved",
			sched:  mixSched(t, 500, "ivybridge", "ivybridge"),
			jobs:   mixJobs(t, "stream", 3e12, "sgemm", 1e14),
			policy: cluster.PolicyCoord, disc: cluster.DisciplineBackfill,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := checkGolden(t, c)
			if c.name != "starved" && (res.Completed != len(c.jobs) || res.Arrived != len(c.jobs)) {
				t.Errorf("completed %d arrived %d, want %d", res.Completed, res.Arrived, len(c.jobs))
			}
		})
	}
}

// TestGoldenEquivalenceFaulty pins exact mode under node outages and
// budget shocks to the frozen output of the former fault-injected round
// loop, fault accounting and transition log included.
func TestGoldenEquivalenceFaulty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		name := fmt.Sprintf("seed%d", seed)
		t.Run(name, func(t *testing.T) {
			res := checkGolden(t, streamCase(t, "faulty-"+name, goldenFaultSpec, seed))
			if res.Faults.NodeFailures == 0 && res.Faults.Shocks == 0 {
				t.Errorf("fault spec disturbed nothing: %+v", res.Faults)
			}
		})
	}
}

// TestGoldenEquivalenceNilInjector: without an injector exact mode
// reproduces the frozen fault-free run of the stream demo queue, the
// clamped advance and the clean fault summary included.
func TestGoldenEquivalenceNilInjector(t *testing.T) {
	checkGolden(t, streamCase(t, "nil-injector", "", 0))
}

// TestPhasedGPUJobs runs phased ML-inference jobs on an H100-class
// cluster through both engines: exact mode must reproduce the frozen
// round-loop output byte for byte, and each engine's trace hash must be
// stable across repeat runs.
func TestPhasedGPUJobs(t *testing.T) {
	w := mustWorkload(t, "llmserve")
	c := goldenCase{
		name:   "phased-h100-llmserve",
		sched:  mixSched(t, 1200, "h100", "h100", "h100"),
		jobs:   testJobs(w, 7, 2e12),
		policy: cluster.PolicyCoord, disc: cluster.DisciplineBackfill,
	}
	exact := checkGolden(t, c)
	if exact.Completed != len(c.jobs) {
		t.Errorf("completed %d of %d phased jobs", exact.Completed, len(c.jobs))
	}

	run := func(mode Mode) Result {
		got, err := Run(Config{
			Sched: c.sched, Workload: w,
			Policy: c.policy, Discipline: c.disc,
			Jobs: c.jobs, Mode: mode,
		})
		if err != nil {
			t.Fatalf("des.Run mode %v: %v", mode, err)
		}
		return got
	}
	if exact.TraceHash != run(ModeExact).TraceHash {
		t.Error("exact-mode trace hash unstable across repeat runs")
	}
	fast := run(ModeFast)
	if fast.Completed != len(c.jobs) || !(fast.Makespan > 0) {
		t.Errorf("fast mode: completed %d, makespan %v", fast.Completed, fast.Makespan)
	}
	if fast.TraceHash != run(ModeFast).TraceHash {
		t.Error("fast-mode trace hash unstable across repeat runs")
	}
}
