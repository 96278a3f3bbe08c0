package decisiontable

// Introspection for the invariant harness and tests: enough surface to
// drive a table deliberately on and off its grid without exposing the
// segment representation.

// Build synchronously builds (if not yet built) the tables for one
// catalog pair and reports which of the two are available. Unknown
// pairs report false, false.
func (s *Set) Build(platform, wl string) (coordBuilt, planBuilt bool) {
	if m := s.coord[platform]; m != nil {
		if sl := m[wl]; sl != nil {
			coordBuilt = sl.ensure(s.buildCoordTable) != nil
		}
	}
	if m := s.plan[platform]; m != nil {
		if sl := m[wl]; sl != nil {
			planBuilt = sl.ensure(s.buildPlanTable) != nil
		}
	}
	return coordBuilt, planBuilt
}

// CoordBoundaries returns the built coord table's segment boundaries
// in ascending order — the first element is the rejection threshold,
// the last the saturation point. nil when the pair has no built table.
func (s *Set) CoordBoundaries(platform, wl string) []float64 {
	m := s.coord[platform]
	if m == nil || m[wl] == nil {
		return nil
	}
	t := m[wl].table.Load()
	if t == nil {
		return nil
	}
	if len(t.segs) == 0 {
		// Degenerate table (saturation at or below the cap floor): the
		// served range is [lo, +inf) with every answer from the
		// saturation row. Report the floor and the saturation point.
		return []float64{t.lo, t.hi}
	}
	out := make([]float64, 0, len(t.segs)+1)
	for i := range t.segs {
		out = append(out, t.segs[i].start)
	}
	return append(out, t.hi)
}

// PlanBoundaries is CoordBoundaries for the pair's plan table.
func (s *Set) PlanBoundaries(platform, wl string) []float64 {
	m := s.plan[platform]
	if m == nil || m[wl] == nil {
		return nil
	}
	t := m[wl].table.Load()
	if t == nil {
		return nil
	}
	out := make([]float64, 0, len(t.segs)+1)
	for i := range t.segs {
		out = append(out, t.segs[i].start)
	}
	return append(out, t.hi)
}

// Eps returns the perf/power tolerance the tables are held to.
func (s *Set) Eps() float64 { return DefaultEps }
