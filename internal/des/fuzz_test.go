package des

import (
	"fmt"
	"math/rand/v2"
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
	edges := cfg.Injector.ShockEdges(3600, cfg.Sched.Budget)
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
