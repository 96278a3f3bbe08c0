package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestScheduleSerialParallelContract: the serial reference engine
// defines the answer; a shared 2-worker engine must return it exactly
// on rounds of 2 to 16 CPU and GPU nodes, cold and then warm from the
// placement memo. The job mix holds same-named variants: a stream that
// reports twice the performance (same profile, so the same grant and
// split as stream) and a dgemm moving four times the bytes (another
// profile). Each must get its own placement, never its namesake's.
func TestScheduleSerialParallelContract(t *testing.T) {
	defer evalpool.SetDefault(evalpool.SetDefault(evalpool.Serial()))
	var plats []hw.Platform
	for _, name := range []string{"ivybridge", "titanxp", "haswell"} {
		p, err := hw.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plats = append(plats, p)
	}
	stream2 := mustWorkload(t, "stream")
	stream2.PerfPerUnitRate *= 2
	dgemm4 := mustWorkload(t, "dgemm")
	dgemm4.Phases = slices.Clone(dgemm4.Phases)
	dgemm4.Phases[0].BytesPerUnit *= 4
	mix := []workload.Workload{
		mustWorkload(t, "stream"), stream2, mustWorkload(t, "sgemm"),
		mustWorkload(t, "dgemm"), dgemm4, mustWorkload(t, "gpustream"), mustWorkload(t, "mg"),
	}
	type round struct {
		s    *Scheduler
		jobs []Job
	}
	var rounds []round
	for n := 2; n <= 16; n++ {
		var nodes []Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, Node{ID: fmt.Sprintf("n%02d", i), Platform: plats[i%len(plats)]})
		}
		for _, perNode := range []units.Power{90, 160, 260} {
			s, err := NewScheduler(perNode*units.Power(n), nodes)
			if err != nil {
				t.Fatal(err)
			}
			var jobs []Job
			for j := 0; j < n+2; j++ {
				jobs = append(jobs, Job{ID: fmt.Sprintf("j%02d", j), Workload: mix[(j+n)%len(mix)]})
			}
			rounds = append(rounds, round{s, jobs})
		}
	}
	schedule := func(r round) Outcome {
		t.Helper()
		out, err := r.s.Schedule(r.jobs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := make([]Outcome, len(rounds))
	twins := 0 // rounds placing stream and its variant at one grant
	for i, r := range rounds {
		want[i] = schedule(r)
		byWl := map[string]Placement{}
		for _, pl := range want[i].Placements {
			byWl[fmt.Sprint(jobWorkload(r.jobs, pl.JobID).PerfPerUnitRate)] = pl
		}
		a, okA := byWl[fmt.Sprint(mix[0].PerfPerUnitRate)]
		b, okB := byWl[fmt.Sprint(stream2.PerfPerUnitRate)]
		if okA && okB && a.Budget == b.Budget {
			twins++
			if a.ExpectedPerf == b.ExpectedPerf {
				t.Fatalf("round %d: stream and its variant both expect perf %v", i, a.ExpectedPerf)
			}
		}
	}
	if twins == 0 {
		t.Fatal("no round places stream and its variant at one grant; the case needs one")
	}
	evalpool.SetDefault(evalpool.New(evalpool.Options{Workers: 2}))
	for _, pass := range []string{"cold", "warm"} {
		for i, r := range rounds {
			if got := schedule(r); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("round %d (%d nodes), %s pass: differs from serial:\n%s\nvs\n%s",
					i, len(r.s.Nodes), pass, outcomeString(got), outcomeString(want[i]))
			}
		}
	}
	if evalpool.Default().Stats().Hits == 0 {
		t.Fatal("the warm pass read no placement back from the memo")
	}
}
