package allocsvc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/recoord"
	"repro/internal/units"
	"repro/internal/wire"
	"repro/internal/workload"
)

// workloadNames renders the catalog's workload names of one kind for
// actionable error messages, mirroring platformNames.
func workloadNames(kind hw.Kind) string {
	var names []string
	for _, w := range workload.AllWorkloads() {
		if w.Kind == kind {
			names = append(names, w.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ComputeRecoord computes one /v1/recoord run in-process: one online
// re-coordination run on a phased GPU workload, compared against
// static COORD and the default governor on the same virtual-time
// trace. It is the exact computation the service runs behind the
// route — through the same worker pool, coalescing and backpressure as
// coord/plan, since a run costs hundreds of engine evaluations — and
// it is exported so allocclient's degraded mode can serve
// re-coordination answers locally when every shard is unreachable. The
// controller is a pure function of the request, so a degraded answer
// is content-identical to a served one.
func ComputeRecoord(req RecoordRequest) (RecoordResponse, error) {
	if err := checkBudget(req.Budget); err != nil {
		return RecoordResponse{}, err
	}
	p, err := hw.PlatformByName(req.Platform)
	if err != nil {
		return RecoordResponse{}, badRequestf("unknown platform %q (supported: %s)",
			req.Platform, platformNames(hw.KindGPU, true))
	}
	if p.Kind != hw.KindGPU {
		return RecoordResponse{}, badRequestf(
			"platform %q is a %s platform; online re-coordination runs on GPU platforms (%s)",
			req.Platform, p.Kind, platformNames(hw.KindGPU, false))
	}
	var wl workload.Workload
	switch {
	case req.PhaseSpec != "" && req.Workload != "":
		return RecoordResponse{}, badRequestf("workload and phase_spec are mutually exclusive")
	case req.PhaseSpec != "":
		if wl, err = workload.ParsePhaseSpec(req.PhaseSpec); err != nil {
			return RecoordResponse{}, badRequestf("%v", err)
		}
	case req.Workload != "":
		if wl, err = workload.ByName(req.Workload); err != nil {
			return RecoordResponse{}, badRequestf("unknown workload %q (supported: %s)",
				req.Workload, workloadNames(hw.KindGPU))
		}
		if wl.Kind != hw.KindGPU {
			return RecoordResponse{}, badRequestf(
				"workload %q is a %s benchmark; online re-coordination runs GPU workloads (%s)",
				req.Workload, wl.Kind, workloadNames(hw.KindGPU))
		}
	default:
		return RecoordResponse{}, badRequestf("one of workload or phase_spec is required")
	}
	budget := units.Power(req.Budget)
	if budget < p.GPU.MinCap {
		capErr := nvgov.CheckCap(p.GPU, budget)
		return RecoordResponse{}, &badRequestError{
			msg: fmt.Sprintf("budget %v is below the card's settable cap floor: %v",
				budget, capErr),
			cause: capErr,
		}
	}

	res, err := recoord.Run(recoord.Config{
		Platform: p, Workload: wl, Budget: budget, Rounds: req.Rounds,
	})
	if err != nil {
		return RecoordResponse{}, badRequestf("%v", err)
	}

	resp := RecoordResponse{
		Platform: res.Platform, Workload: res.Workload,
		Budget: res.Budget.Watts(), PerfUnit: res.PerfUnit,
		OnlinePerf: res.OnlinePerf, StaticPerf: res.StaticPerf,
		GovernorPerf: res.GovernorPerf, Gain: res.Gain(),
		Recoordinations: res.Recoordinations, Switches: res.Switches,
		StaticAlloc: AllocJSON{
			ProcWatts: res.StaticSetting.Proc.Watts(),
			MemWatts:  res.StaticSetting.Mem.Watts(),
		},
	}
	for _, v := range res.Visits {
		resp.Visits = append(resp.Visits, wire.RecoordVisitJSON{
			Phase: v.Phase, Ticks: v.Ticks, LagTicks: v.LagTicks,
			Recoordinated: v.Recoordinated,
			Alloc: AllocJSON{
				ProcWatts: v.Setting.Proc.Watts(),
				MemWatts:  v.Setting.Mem.Watts(),
			},
			OnlinePerf: v.OnlinePerf, StaticPerf: v.StaticPerf,
			GovernorPerf: v.GovernorPerf,
		})
	}
	return resp, nil
}
