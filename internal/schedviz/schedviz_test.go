package schedviz

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/hw"
	"repro/internal/workload"
)

func queueResult(t *testing.T) *cluster.QueueResult {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewScheduler(500, []cluster.Node{
		{ID: "node00", Platform: p},
		{ID: "node01", Platform: p},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, wl string, units float64) cluster.TimedJob {
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.TimedJob{Job: cluster.Job{ID: id, Workload: w}, Units: units}
	}
	res, err := des.Run(des.Config{Sched: s, Policy: cluster.PolicyCoord, Jobs: []cluster.TimedJob{
		mk("alpha", "dgemm", 5e13),
		mk("beta", "stream", 3e12),
		mk("gamma", "mg", 3e12),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Queue
}

func TestGanttRendersSchedule(t *testing.T) {
	res := queueResult(t)
	svg := Gantt("Queue under 500 W", res)
	for _, want := range []string{"<svg", "</svg>", "Queue under 500 W",
		"node00", "node01", "alpha", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// One bar per uninterrupted execution: three jobs, no suspensions.
	if got := strings.Count(svg, "<title>"); got != 3 {
		t.Errorf("bar count = %d, want 3", got)
	}
	// Time axis ends at the makespan.
	if !strings.Contains(svg, "0 s") {
		t.Error("time axis missing")
	}
}

func TestGanttEmpty(t *testing.T) {
	var res cluster.QueueResult
	svg := Gantt("empty", &res)
	if !strings.Contains(svg, "no schedule") {
		t.Error("empty result should render a placeholder")
	}
}

func TestGanttSuspensionsSplitBars(t *testing.T) {
	res := &cluster.QueueResult{
		Makespan: 100,
		Events: []cluster.Event{
			{Time: 0, Kind: "start", JobID: "j", NodeID: "n0"},
			{Time: 30, Kind: "suspend", JobID: "j", NodeID: "n0"},
			{Time: 60, Kind: "start", JobID: "j", NodeID: "n0"},
			{Time: 100, Kind: "finish", JobID: "j", NodeID: "n0"},
		},
	}
	svg := Gantt("suspended", res)
	if got := strings.Count(svg, "<title>"); got != 2 {
		t.Errorf("suspended job should render 2 bars, got %d", got)
	}
}

func TestGanttOpenSpanRunsToMakespan(t *testing.T) {
	res := &cluster.QueueResult{
		Makespan: 50,
		Events: []cluster.Event{
			{Time: 0, Kind: "start", JobID: "j", NodeID: "n0"},
		},
	}
	svg := Gantt("open", res)
	if !strings.Contains(svg, "0.0s-50.0s") {
		t.Errorf("open span should extend to makespan: %s", svg)
	}
}

func TestGanttEscapesNames(t *testing.T) {
	res := &cluster.QueueResult{
		Makespan: 10,
		Events: []cluster.Event{
			{Time: 0, Kind: "start", JobID: `j<1>&"x"`, NodeID: "n<0>"},
			{Time: 10, Kind: "finish", JobID: `j<1>&"x"`, NodeID: "n<0>"},
		},
	}
	svg := Gantt(`t<itle>`, res)
	if strings.Contains(svg, "j<1>") || strings.Contains(svg, "n<0>") || strings.Contains(svg, "t<itle>") {
		t.Error("names not escaped")
	}
}
