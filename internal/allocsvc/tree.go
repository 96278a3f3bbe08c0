package allocsvc

import (
	"repro/internal/powertree"
	"repro/internal/units"
)

// treeSpec converts the wire request into a powertree spec, resolving
// catalog names with the same diagnostics as the other routes.
func treeSpec(req *TreeRequest) (powertree.Spec, error) {
	if len(req.Racks) == 0 {
		return powertree.Spec{}, badRequestf("at least one rack is required")
	}
	spec := powertree.Spec{Racks: make([]powertree.Rack, 0, len(req.Racks))}
	for _, rj := range req.Racks {
		rack := powertree.Rack{
			ID:    rj.ID,
			Cap:   units.Power(rj.CapWatts),
			Nodes: make([]powertree.Node, 0, len(rj.Nodes)),
		}
		for _, nj := range rj.Nodes {
			p, wl, err := resolvePair(nj.Platform, nj.Workload)
			if err != nil {
				return powertree.Spec{}, err
			}
			rack.Nodes = append(rack.Nodes, powertree.Node{
				ID: nj.ID, Platform: p, Workload: wl, Priority: nj.Priority,
			})
		}
		spec.Racks = append(spec.Racks, rack)
	}
	if err := spec.Validate(); err != nil {
		return powertree.Spec{}, badRequestf("invalid tree: %v", err)
	}
	return spec, nil
}

// computeTree solves one tree request. The route is deliberately
// table-unaware (a tree solve is a cross-node water-fill, not a
// per-pair lookup), and the computation stays unexported so the
// degraded-local client cannot impersonate it (the curve profiles live
// server-side, like the cluster scheduler's caches).
func computeTree(req TreeRequest) (TreeResponse, error) {
	if err := checkBudget(req.Budget); err != nil {
		return TreeResponse{}, err
	}
	spec, err := treeSpec(&req)
	if err != nil {
		return TreeResponse{}, err
	}
	res, err := powertree.Solve(spec, units.Power(req.Budget))
	if err != nil {
		return TreeResponse{}, err
	}
	resp := TreeResponse{
		Budget:           res.Budget.Watts(),
		Granted:          res.Granted.Watts(),
		Surplus:          res.Surplus.Watts(),
		TotalPerf:        res.TotalPerf,
		Oversubscription: res.Oversubscription,
		Grants:           []TreeGrantJSON{},
		Racks:            []TreeRackGrantJSON{},
	}
	for _, g := range res.Grants {
		resp.Grants = append(resp.Grants, TreeGrantJSON{
			Node:     g.Node,
			Rack:     g.Rack,
			Priority: g.Priority,
			Budget:   g.Budget.Watts(),
			Alloc: AllocJSON{
				ProcWatts: g.Alloc.Proc.Watts(), MemWatts: g.Alloc.Mem.Watts(),
			},
			Status:       g.Status.String(),
			SurplusWatts: g.Surplus.Watts(),
			ExpectedPerf: g.Perf,
		})
	}
	for _, rr := range res.Racks {
		resp.Racks = append(resp.Racks, TreeRackGrantJSON{
			Rack:     rr.Rack,
			CapWatts: rr.Cap.Watts(),
			Budget:   rr.Budget.Watts(),
			Kept:     rr.Kept,
			Shed:     rr.Shed,
		})
	}
	for _, sh := range res.Shed {
		resp.Shed = append(resp.Shed, TreeShedJSON{
			Node:       sh.Node,
			Rack:       sh.Rack,
			Priority:   sh.Priority,
			FloorWatts: sh.Floor.Watts(),
			Reason:     sh.Reason,
		})
	}
	return resp, nil
}
