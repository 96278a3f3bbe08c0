package wire

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// goldenSpec mirrors the representative mixed-fault scenario `pbc
// faults` uses by default.
const goldenSpec = "sensor.drop=0.05,sensor.noise=0.02,cap.fail=0.1,cap.stuck=0.05," +
	"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10"

// captureGolden wires a fresh registry into the deterministic stack,
// replays the seeded fault scenario (a resilient node run, a faulty
// cluster queue, and a degraded dynamic plan) with the given engine
// worker count, and returns the snapshot text.
func captureGolden(t *testing.T, workers int) string {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := faults.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}

	prev := evalpool.SetDefault(evalpool.New(evalpool.Options{Workers: workers}))
	defer evalpool.SetDefault(prev)

	reg := telemetry.New()
	Instrument(reg)
	defer Instrument(nil)

	// The transition log's spans join the snapshot through the attached
	// tracer; a fake clock stamps them with deterministic wall times.
	log := &trace.EventLog{}
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	tick := 0
	log.Tracer().SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	})
	reg.AttachTracer(log.Tracer())

	const bound = units.Power(208)
	if _, err := faults.RunNode(p, w, bound, 2e12, 250*time.Millisecond,
		faults.NewInjector(sp, 1), log); err != nil {
		t.Fatal(err)
	}

	nodes := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
	}
	sched, err := cluster.NewScheduler(units.Power(bound.Watts()*3), nodes)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []cluster.TimedJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: w},
			Units: 2e12,
		})
	}
	if _, err := des.Run(des.Config{
		Sched: sched, Jobs: jobs,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Injector: faults.NewInjector(sp, 1), Log: log,
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := dyncoord.PlanCPUOrDegrade(p, w, 150); err != nil {
		t.Fatal(err)
	}

	return reg.Snapshot().Text()
}

// TestGoldenSnapshotByteIdentical is the acceptance gate for the
// telemetry layer's determinism rules: the same seeded fault scenario
// must produce byte-identical snapshot text run over run AND across
// engine worker counts (serial vs. 8 workers). Only the deterministic
// tier (wire.Instrument) is registered — engine cache metrics are
// excluded by design, because concurrent duplicate computation makes
// hit/miss counts worker-dependent.
func TestGoldenSnapshotByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fault scenarios three times; skipped with -short")
	}
	serial1 := captureGolden(t, 1)
	serial2 := captureGolden(t, 1)
	if serial1 != serial2 {
		t.Fatalf("snapshot not reproducible run-over-run:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			serial1, serial2)
	}
	parallel := captureGolden(t, 8)
	if serial1 != parallel {
		t.Fatalf("snapshot differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial1, parallel)
	}
	if len(serial1) == 0 || serial1 == "# telemetry snapshot\n" {
		t.Fatal("golden snapshot is empty — instrumentation not wired")
	}
}

// TestInstrumentNilResets checks that wiring nil after a run leaves the
// stack with free no-op handles (the disabled state tests rely on).
func TestInstrumentNilResets(t *testing.T) {
	reg := telemetry.New()
	Instrument(reg)
	Instrument(nil)
	InstrumentEngine(nil)
	// A decision after disabling must not affect the old registry.
	before := reg.Snapshot().Text()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyncoord.PlanCPUOrDegrade(p, w, 150); err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot().Text(); after != before {
		t.Fatalf("disabled instrumentation still wrote to the registry:\n%s\nvs\n%s", before, after)
	}
}
