package des

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// FuzzParseArrivalSpec asserts the parser's contract on arbitrary
// input: accepted specs validate, render canonically, and round-trip
// through String exactly; everything else errors instead of panicking.
// Accepted specs generate the same trace as the original thinning loop.
func FuzzParseArrivalSpec(f *testing.F) {
	seeds := []string{
		"",
		"none",
		"rate=2",
		"rate=2,burst=1.5",
		"rate=0.05,burst=1.5,diurnal=0.4,period=900,units=2e12,spread=0.5",
		"burst=3,rate=1",
		"rate=1e300",
		"rate=-1",
		"rate=NaN",
		"rate=Inf",
		"diurnal=1.5",
		"spread=1",
		"rate=1,rate=2",
		"rate=",
		"=2",
		"rate=1,,",
		"  rate = 2  ",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseArrivalSpec(s)
		if err != nil {
			return
		}
		if verr := sp.Validate(); verr != nil {
			t.Fatalf("ParseArrivalSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		rendered := sp.String()
		if rendered == "none" {
			if sp != (ArrivalSpec{}) {
				t.Fatalf("non-zero spec %+v rendered as none", sp)
			}
			return
		}
		back, err := ParseArrivalSpec(rendered)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", rendered, err)
		}
		if back != sp {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, sp, rendered, back)
		}
		if again := back.String(); again != rendered {
			t.Fatalf("String not idempotent: %q vs %q", rendered, again)
		}
		// Accepted specs must generate a bounded, deterministic trace
		// without panicking.
		a := generateArrivals(sp, 1, 10, 100)
		b := generateArrivals(sp, 1, 10, 100)
		if len(a) != len(b) {
			t.Fatalf("generateArrivals not deterministic: %d vs %d jobs", len(a), len(b))
		}
		if len(a) > 100 {
			t.Fatalf("generateArrivals ignored maxJobs: %d", len(a))
		}
		// The trough shortcut must not move a bit of the trace.
		if diff := sameArrivals(a, thinningArrivals(sp, 1, 10, 100)); diff != "" {
			t.Fatalf("spec %v: generateArrivals differs from the thinning loop: %s", sp, diff)
		}
	})
}

// FuzzModesAgree is the differential contract between the modes: on any
// configuration both return the same Result apart from Mode and Queue,
// bit for bit, or the same error, and a finished run conserves the pool
// within 1e-9 of the budget. The first 40 fuzz bytes choose 1–16 nodes
// of mixed catalog platforms (at least one a GPU), a per-node budget
// that often falls below the maximum demand, the policy, the
// discipline, up to five t=0 jobs of mixed workloads, a small arrival
// spec and an optional fault spec; the bytes past them, a budget
// schedule (fuzzSchedule). Small explicit MaxJobs and MaxEvents bound
// every run; a run that hits them must fail the same way in both modes.
func FuzzModesAgree(f *testing.F) {
	// The seeded corpus: the empty input, 32 fixed pseudo-random draws
	// without a schedule and 64 with one.
	f.Add([]byte{})
	rng := rand.New(rand.NewPCG(1, 2))
	for range 32 {
		b := make([]byte, 40)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	rng = rand.New(rand.NewPCG(3, 4))
	for range 64 {
		b := make([]byte, 40+2*(1+rng.IntN(5)))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	plats := hw.AllPlatforms()
	var gpus []hw.Platform
	for _, p := range plats {
		if p.Kind == hw.KindGPU {
			gpus = append(gpus, p)
		}
	}
	wls := workload.AllWorkloads()
	arrivalSpecs := []string{
		"",
		"rate=0.02,units=1e12",
		"rate=0.05,burst=2,units=2e12,spread=0.5",
		"rate=0.2,burst=3,diurnal=0.5,period=300,units=5e11,spread=0.8",
	}
	faultSpecs := []string{
		"",
		"node.mtbf=900,node.mttr=60",
		"shock.mtbs=120,shock.frac=0.3,shock.len=20",
		"node.mtbf=3000",
		"node.mtbf=1800,node.mttr=120,shock.mtbs=300,shock.frac=0.25,shock.len=30",
	}
	jobUnits := []float64{5e11, 2e12, 1e13}
	f.Fuzz(func(t *testing.T, data []byte) {
		var schedBytes []byte
		if len(data) > 40 {
			data, schedBytes = data[:40], data[40:]
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nodes := make([]cluster.Node, 1+next()%16)
		gpu := false
		for i := range nodes {
			p := plats[next()%len(plats)]
			gpu = gpu || p.Kind == hw.KindGPU
			nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
		}
		if !gpu {
			nodes[0].Platform = gpus[next()%len(gpus)]
		}
		perNode := 40 + 3*next() // 40–805 W
		sched, err := cluster.NewScheduler(units.Power(float64(perNode*len(nodes))), nodes)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := ParseArrivalSpec(arrivalSpecs[next()%len(arrivalSpecs)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Sched: sched, Workload: wls[next()%len(wls)],
			Policy:     cluster.PolicyCoord,
			Discipline: []cluster.Discipline{cluster.DisciplineBackfill, cluster.DisciplineFIFO}[next()%2],
			Arrivals:   arr, Seed: uint64(next()), Horizon: 600,
			MaxJobs: 24, MaxEvents: 5000,
		}
		if next()%4 == 0 {
			cfg.Policy = cluster.PolicyEvenSplit // rejected up front when a GPU workload meets a GPU node
		}
		for i, n := 0, next()%6; i < n; i++ {
			cfg.Jobs = append(cfg.Jobs, cluster.TimedJob{
				Job:   cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: wls[next()%len(wls)]},
				Units: jobUnits[next()%len(jobUnits)],
			})
		}
		if spec := faultSpecs[next()%len(faultSpecs)]; spec != "" {
			sp, err := faults.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Injector = faults.NewInjector(sp, uint64(next()))
		}
		cfg.BudgetPhases = fuzzSchedule(schedBytes, cfg)

		cfg.Mode = ModeExact
		exact, eerr := Run(cfg)
		cfg.Mode = ModeFast
		fast, ferr := Run(cfg)
		if eerr != nil || ferr != nil {
			if eerr == nil || ferr == nil || eerr.Error() != ferr.Error() {
				t.Fatalf("errors differ: exact %v, fast %v", eerr, ferr)
			}
			return
		}
		if d := modesDiffer(exact, fast); d != "" {
			t.Fatalf("modes differ:%s", d)
		}
		if e := exact.Faults.MaxConservationError; e > 1e-9*sched.Budget {
			t.Fatalf("pool conservation error %v on a %v budget", e, sched.Budget)
		}
	})
}

// fuzzSchedule draws a budget schedule of one phase per two bytes, up
// to six; fewer than two bytes draw none. A phase's first byte places
// its end: below 128, a step of 5–640 s past the previous end; from 128
// up, if later, the time of one of the run's arrivals or of one of the
// injector's first eight shock edges, so that schedule edges tie with
// both. Its second byte sets its budget to 0, ¼, ½, ¾ or all of the
// ceiling.
func fuzzSchedule(b []byte, cfg Config) []BudgetPhase {
	var arrivals, shocks []float64
	for _, a := range generateArrivals(cfg.Arrivals, cfg.Seed, cfg.Horizon, cfg.MaxJobs) {
		arrivals = append(arrivals, a.at)
	}
	edges := cfg.Injector.ShockEdges(faults.Before(3600), cfg.Sched.Budget)
	for _, ok := edges.Peek(); ok && len(shocks) < 8; _, ok = edges.Peek() {
		shocks = append(shocks, edges.Pop().At)
	}
	var phases []BudgetPhase
	prev := 0.0
	for ; len(b) >= 2 && len(phases) < 6; b = b[2:] {
		until := prev + 5*float64(1+b[0]%128)
		if ties := [][]float64{arrivals, shocks}[b[0]/64%2]; b[0] >= 128 && len(ties) > 0 {
			if at := ties[int(b[0])%len(ties)]; at > prev {
				until = at
			}
		}
		phases = append(phases, BudgetPhase{Until: until, Budget: cfg.Sched.Budget * units.Power(b[1]%5) / 4})
		prev = until
	}
	return phases
}

// FuzzScheduleMatchesDES is the differential contract of the one
// placement rule: a cluster.Scheduler.Schedule round places exactly the
// jobs an exact-mode backfill run, with the same nodes and t=0 jobs and
// no arrivals, faults or budget schedule, starts at t=0. Each lands on
// the same node at the same Budget and ExpectedPower, bit for bit, in
// the same order; the round defers the rest in queue order and leaves
// the pool those starts leave. The fuzz bytes choose 1–8 nodes of mixed
// catalog platforms, a budget of 100–1400 W in quarter watts, and 1–8
// jobs of mixed workloads of the nodes' kinds. A round the run refuses with
// cluster.ErrStarved (some job can never start) is skipped and counted.
func FuzzScheduleMatchesDES(f *testing.F) {
	plats := hw.AllPlatforms()
	wls := workload.AllWorkloads()
	// The seeded corpus: the empty input, the titanv rounds that once
	// deferred a third job with more than its threshold left (three
	// nodes, three jobs of one workload, 290 W), and 64 fixed
	// pseudo-random draws.
	f.Add([]byte{})
	titanv := byte(slices.IndexFunc(plats, func(p hw.Platform) bool { return p.Name == "titanv" }))
	gpuWls := slices.DeleteFunc(slices.Clone(wls), func(w workload.Workload) bool { return w.Kind != hw.KindGPU })
	for _, name := range []string{"cufft", "gpustream", "hpcg", "minife", "llmchat"} {
		w := byte(slices.IndexFunc(gpuWls, func(w workload.Workload) bool { return w.Name == name }))
		f.Add([]byte{2, titanv, titanv, titanv, 760 >> 8, 760 & 0xff, 2, w, w, w})
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for range 64 {
		b := make([]byte, 20)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	compared, starved := 0, 0
	f.Cleanup(func() {
		f.Logf("%d rounds compared, %d starved rounds skipped", compared, starved)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nodes := make([]cluster.Node, 1+next()%8)
		for i := range nodes {
			nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: plats[next()%len(plats)]}
		}
		budget := units.Power(100 + 0.25*float64((next()<<8|next())%5201))
		sched, err := cluster.NewScheduler(budget, nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Jobs run workloads of the kinds the nodes have, so that a
		// round starves only on its budget.
		runnable := slices.DeleteFunc(slices.Clone(wls), func(w workload.Workload) bool {
			return !slices.ContainsFunc(nodes, func(n cluster.Node) bool { return n.Platform.Kind == w.Kind })
		})
		jobs := make([]cluster.Job, 1+next()%8)
		timed := make([]cluster.TimedJob, len(jobs))
		for i := range jobs {
			jobs[i] = cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: runnable[next()%len(runnable)]}
			timed[i] = cluster.TimedJob{Job: jobs[i], Units: 1e12}
		}

		res, err := Run(Config{Sched: sched, Jobs: timed, Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill})
		if errors.Is(err, cluster.ErrStarved) {
			starved++
			t.Skipf("queue run starved: %v", err)
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := sched.Schedule(jobs)
		if err != nil {
			t.Fatal(err)
		}
		compared++

		pool := budget
		var started []cluster.Placement
		for _, e := range res.Queue.Events {
			if e.Time != 0 || e.Kind != "start" {
				continue
			}
			st := res.Queue.Stats[e.JobID]
			started = append(started, cluster.Placement{JobID: e.JobID, NodeID: e.NodeID, Budget: st.Budget, ExpectedPower: st.Power})
			pool -= st.Budget
		}
		var deferred []string
		for _, j := range jobs {
			if !slices.ContainsFunc(started, func(p cluster.Placement) bool { return p.JobID == j.ID }) {
				deferred = append(deferred, j.ID)
			}
		}
		if len(started) != len(out.Placements) {
			t.Fatalf("%v over %d nodes: round places %d jobs, the queue run starts %d at t=0", budget, len(nodes), len(out.Placements), len(started))
		}
		for i, want := range started {
			got := out.Placements[i]
			if got.JobID != want.JobID || got.NodeID != want.NodeID || got.Budget != want.Budget || got.ExpectedPower != want.ExpectedPower {
				t.Fatalf("%v over %d nodes, placement %d: round %s on %s at %v drawing %v, queue run %s on %s at %v drawing %v",
					budget, len(nodes), i, got.JobID, got.NodeID, got.Budget, got.ExpectedPower, want.JobID, want.NodeID, want.Budget, want.ExpectedPower)
			}
		}
		if !slices.Equal(out.Deferred, deferred) {
			t.Fatalf("%v over %d nodes: round defers %v, the queue run %v", budget, len(nodes), out.Deferred, deferred)
		}
		if out.PoolLeft != pool {
			t.Fatalf("%v over %d nodes: round leaves %v, the queue run's t=0 starts %v", budget, len(nodes), out.PoolLeft, pool)
		}
	})
}

// heapTimes are completion times FuzzDoneHeap draws by index: zero,
// the smallest and largest subnormals and the smallest normal, values
// an ulp apart, huge values and +Inf. Drawing an index twice gives an
// exact tie.
var heapTimes = []float64{
	0, math.SmallestNonzeroFloat64, 0x1.ffffffffffffep-1023, 0x1p-1022,
	1, math.Nextafter(1, 2), 2, 1e300, math.MaxFloat64, math.Inf(1),
}

// FuzzDoneHeap holds the completion heap to its reference: the input
// interleaves pushes and pops, each push's time drawn from heapTimes or
// taken from eight raw bytes made non-negative (a NaN becomes +Inf).
// beforeBit must equal before on every pair of pushed items, every pop
// must return the earliest pending item by before, and draining must
// return the rest sorted by before.
func FuzzDoneHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 3, 0, 9, 0, 8, 0, 4, 0, 4, 3, 3, 0, 0, 0, 5, 0, 6, 0, 7, 3})
	rng := rand.New(rand.NewPCG(5, 6))
	for range 32 {
		b := make([]byte, 64+rng.IntN(512))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var h doneHeap
		var pushed, pending []heapItem
		var seq uint64
		check := func(got heapItem) {
			min := 0
			for i := range pending {
				if pending[i].before(pending[min]) {
					min = i
				}
			}
			if got != pending[min] {
				t.Fatalf("popped %+v, sorted order has %+v", got, pending[min])
			}
			pending = slices.Delete(pending, min, min+1)
		}
		for len(b) > 0 {
			op := b[0]
			b = b[1:]
			if op%4 == 3 && len(pending) > 0 {
				check(h.pop())
				continue
			}
			var at float64
			if op%4 == 2 && len(b) >= 8 {
				bits := binary.LittleEndian.Uint64(b) &^ (1 << 63)
				b = b[8:]
				if at = math.Float64frombits(bits); math.IsNaN(at) {
					at = math.Inf(1)
				}
			} else {
				at = heapTimes[int(op>>2)%len(heapTimes)]
			}
			seq++
			it := heapItem{t: at, seq: seq, job: int32(seq), gen: uint32(op)}
			pushed = append(pushed, it)
			for _, o := range pushed {
				if got, want := it.beforeBit(o), it.before(o); (got == 1) != want || got > 1 {
					t.Fatalf("beforeBit(%+v, %+v) = %d, before = %v", it, o, got, want)
				}
				if got, want := o.beforeBit(it), o.before(it); (got == 1) != want || got > 1 {
					t.Fatalf("beforeBit(%+v, %+v) = %d, before = %v", o, it, got, want)
				}
			}
			h.push(it)
			pending = append(pending, it)
		}
		sorted := slices.Clone(pending)
		slices.SortFunc(sorted, func(a, b heapItem) int {
			if a.before(b) {
				return -1
			}
			if b.before(a) {
				return 1
			}
			return 0
		})
		for _, want := range sorted {
			if got := h.pop(); got != want {
				t.Fatalf("drain: popped %+v, sorted order has %+v", got, want)
			}
		}
		if len(h) != 0 {
			t.Fatalf("%d items left after draining", len(h))
		}
	})
}
