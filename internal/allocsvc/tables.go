package allocsvc

// Tables is the precomputed decision-table hook (implemented by
// internal/decisiontable). A table lookup must be cheap enough to run
// before admission control: covered requests bypass the worker pool
// and the coalescing layer entirely, because the O(1) interpolating
// lookup costs less than queueing for a slot would.
//
// Implementations fill out in place (reusing out's existing
// allocations where possible — the service pools the out structs) and
// must be safe for concurrent use.
type Tables interface {
	// Coord fills out with the table-served decision for req and
	// reports whether the table covered it. A false return means the
	// exact path must serve the request: unknown pair, non-default
	// strategy, invalid budget, or a pair whose table could not be
	// built (degraded profiles).
	Coord(req *CoordRequest, out *CoordResponse) bool
	// Plan is the analogous lookup for /v1/plan.
	Plan(req *PlanRequest, out *PlanResponse) bool
}
