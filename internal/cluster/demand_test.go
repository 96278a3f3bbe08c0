package cluster

import (
	"math"
	"testing"
)

func timedJob(t *testing.T, id, wl string, work float64) TimedJob {
	t.Helper()
	return TimedJob{Job: job(t, id, wl), Units: work}
}

func TestDemandResponseShedsOnBudgetDrop(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "long1", "dgemm", 3e14),
		timedJob(t, "long2", "stream", 2e13),
	}
	// Budget drops to 240 W after 100 s, recovers at 400 s.
	phases := []BudgetPhase{
		{Until: 100, Budget: 500},
		{Until: 400, Budget: 240},
		{Until: 1e12, Budget: 500},
	}
	res, err := s.RunDemandResponse(jobs, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("completed %d of 2", len(res.Stats))
	}
	if res.Suspensions == 0 {
		t.Error("the budget drop should suspend a job")
	}
	if res.Violations != 0 {
		t.Errorf("shedding left %d violations", res.Violations)
	}
	// A suspend event exists between 100 and 400 seconds.
	sawSuspend := false
	for _, e := range res.Events {
		if e.Kind == "suspend" {
			sawSuspend = true
			if e.Time < 99.99 || e.Time > 400.01 {
				t.Errorf("suspend at %.1f, expected inside the low-budget window", e.Time)
			}
		}
	}
	if !sawSuspend {
		t.Error("no suspend event logged")
	}
}

func TestDemandResponseSuspendedWorkResumes(t *testing.T) {
	// A job suspended by the drop must finish after the budget recovers,
	// and its total executed work is conserved (it completes).
	s, err := NewScheduler(460, nodes(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{
		timedJob(t, "a", "dgemm", 1e14),
		timedJob(t, "b", "mg", 1e13),
	}
	phases := []BudgetPhase{
		{Until: 50, Budget: 460},
		{Until: 200, Budget: 230},
		{Until: 1e12, Budget: 460},
	}
	res, err := s.RunDemandResponse(jobs, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("completed %d of 2", len(res.Stats))
	}
	// Events for a suspended job: start, suspend, start, finish.
	counts := map[string]int{}
	for _, e := range res.Events {
		counts[e.JobID+"/"+e.Kind]++
	}
	for _, id := range []string{"a", "b"} {
		if counts[id+"/finish"] != 1 {
			t.Errorf("job %s finished %d times", id, counts[id+"/finish"])
		}
		if counts[id+"/start"] != counts[id+"/suspend"]+1 {
			t.Errorf("job %s: %d starts vs %d suspends", id,
				counts[id+"/start"], counts[id+"/suspend"])
		}
	}
}

func TestDemandResponseValidation(t *testing.T) {
	s, err := NewScheduler(400, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := []TimedJob{timedJob(t, "j", "stream", 1e12)}
	if _, err := s.RunDemandResponse(j, nil); err == nil {
		t.Error("empty phases accepted")
	}
	bad := []BudgetPhase{{Until: 100, Budget: 400}, {Until: 50, Budget: 300}}
	if _, err := s.RunDemandResponse(j, bad); err == nil {
		t.Error("unordered phases accepted")
	}
	if _, err := s.RunDemandResponse(
		[]TimedJob{timedJob(t, "z", "stream", -1)},
		[]BudgetPhase{{Until: 1e12, Budget: 400}}); err == nil {
		t.Error("negative work accepted")
	}
	// A final budget below every threshold deadlocks and must error.
	if _, err := s.RunDemandResponse(j, []BudgetPhase{{Until: 1e12, Budget: 100}}); err == nil {
		t.Error("impossible final budget accepted")
	}
}

func TestDemandResponseEnergyAccounting(t *testing.T) {
	s, err := NewScheduler(500, nodes(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []TimedJob{timedJob(t, "j", "stream", 5e12)}
	res, err := s.RunDemandResponse(jobs, []BudgetPhase{{Until: 1e12, Budget: 500}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats["j"]
	wantEnergy := st.Power.Watts() * (st.End - st.Start)
	if math.Abs(res.Energy.Joules()-wantEnergy) > wantEnergy*0.01 {
		t.Errorf("energy %v, want %v", res.Energy.Joules(), wantEnergy)
	}
}
