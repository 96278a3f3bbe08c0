package wire

import "math"

// Per-shape encoders (append style) and decoders. Encoders append one
// complete frame to dst and return the extended slice; they allocate
// only if dst runs out of capacity, so a pooled buffer makes encoding
// allocation-free in steady state. A value that cannot be represented
// within the frame limits — a string field past 64 KiB, or a frame past
// MaxFrame (a very large schedule round) — fails with ErrFrameTooLarge
// and dst is returned unchanged; encoders never truncate silently.
// Decoders fill a caller-supplied struct, reusing slice capacity, so a
// pooled response struct makes decoding allocation-free too (for
// catalog vocabulary; see intern.go).

// minimum encoded sizes for repeated elements, used to validate counts
// against the bytes actually present.
const (
	minStep      = 2 + 8 + 8 + 8 + 2 + 1 // phase, weight, alloc, status, fellback
	minNode      = 2 + 2                 // id, platform
	minJob       = 2 + 2                 // id, workload
	minPlacement = 2 + 2 + 8 + 8 + 8 + 8 + 8
	minString    = 2
	minTreeNode  = 2 + 2 + 2 + 4 // id, platform, workload, priority
	minTreeRack  = 2 + 8 + 4     // id, cap, node count
	minTreeGrant = 2 + 2 + 4 + 8 + 8 + 8 + 2 + 8 + 8
	minRackGrant = 2 + 8 + 8 + 4 + 4
	minTreeShed  = 2 + 2 + 4 + 8 + 2
)

// AppendCoordRequest appends a TCoordRequest frame.
func AppendCoordRequest(dst []byte, m *CoordRequest) ([]byte, error) {
	e, p := beginEnc(dst, TCoordRequest)
	e.str(m.Platform)
	e.str(m.Workload)
	e.f64(m.Budget)
	e.str(m.Strategy)
	e.u32(clampU32(m.TimeoutMS))
	return e.finish(p)
}

// DecodeCoordRequest decodes a TCoordRequest frame into out.
func DecodeCoordRequest(data []byte, out *CoordRequest) error {
	r, err := openFrame(data, TCoordRequest)
	if err != nil {
		return err
	}
	out.Platform = r.str()
	out.Workload = r.str()
	out.Budget = r.f64()
	out.Strategy = r.str()
	out.TimeoutMS = int(r.u32())
	return r.closeFrame()
}

// AppendCoordResponse appends a TCoordResponse frame.
func AppendCoordResponse(dst []byte, m *CoordResponse) ([]byte, error) {
	e, p := beginEnc(dst, TCoordResponse)
	e.str(m.Platform)
	e.str(m.Workload)
	e.str(m.Kind)
	e.str(m.Strategy)
	e.f64(m.Budget)
	e.str(m.Status)
	e.bool(m.Alloc != nil)
	if m.Alloc != nil {
		e.f64(m.Alloc.ProcWatts)
		e.f64(m.Alloc.MemWatts)
	}
	e.f64(m.SurplusWatts)
	e.f64(m.ExpectedPerf)
	e.str(m.PerfUnit)
	e.f64(m.ExpectedPower)
	return e.finish(p)
}

// DecodeCoordResponse decodes a TCoordResponse frame into out. When
// the frame carries an allocation, out.Alloc is reused if non-nil.
func DecodeCoordResponse(data []byte, out *CoordResponse) error {
	r, err := openFrame(data, TCoordResponse)
	if err != nil {
		return err
	}
	out.Platform = r.str()
	out.Workload = r.str()
	out.Kind = r.str()
	out.Strategy = r.str()
	out.Budget = r.f64()
	out.Status = r.str()
	if r.bool() {
		if out.Alloc == nil {
			out.Alloc = &AllocJSON{}
		}
		out.Alloc.ProcWatts = r.f64()
		out.Alloc.MemWatts = r.f64()
	} else {
		out.Alloc = nil
	}
	out.SurplusWatts = r.f64()
	out.ExpectedPerf = r.f64()
	out.PerfUnit = r.str()
	out.ExpectedPower = r.f64()
	return r.closeFrame()
}

// AppendPlanRequest appends a TPlanRequest frame.
func AppendPlanRequest(dst []byte, m *PlanRequest) ([]byte, error) {
	e, p := beginEnc(dst, TPlanRequest)
	e.str(m.Platform)
	e.str(m.Workload)
	e.f64(m.Budget)
	e.u32(clampU32(m.TimeoutMS))
	return e.finish(p)
}

// DecodePlanRequest decodes a TPlanRequest frame into out.
func DecodePlanRequest(data []byte, out *PlanRequest) error {
	r, err := openFrame(data, TPlanRequest)
	if err != nil {
		return err
	}
	out.Platform = r.str()
	out.Workload = r.str()
	out.Budget = r.f64()
	out.TimeoutMS = int(r.u32())
	return r.closeFrame()
}

// AppendPlanResponse appends a TPlanResponse frame.
func AppendPlanResponse(dst []byte, m *PlanResponse) ([]byte, error) {
	e, p := beginEnc(dst, TPlanResponse)
	e.str(m.Platform)
	e.str(m.Workload)
	e.f64(m.Budget)
	e.u32(uint32(len(m.Steps)))
	for i := range m.Steps {
		st := &m.Steps[i]
		e.str(st.Phase)
		e.f64(st.Weight)
		e.f64(st.Alloc.ProcWatts)
		e.f64(st.Alloc.MemWatts)
		e.str(st.Status)
		e.bool(st.FellBack)
	}
	e.bool(m.Rejected)
	return e.finish(p)
}

// DecodePlanResponse decodes a TPlanResponse frame into out, reusing
// out.Steps' capacity.
func DecodePlanResponse(data []byte, out *PlanResponse) error {
	r, err := openFrame(data, TPlanResponse)
	if err != nil {
		return err
	}
	out.Platform = r.str()
	out.Workload = r.str()
	out.Budget = r.f64()
	n := r.count(minStep)
	out.Steps = out.Steps[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var st PlanStepJSON
		st.Phase = r.str()
		st.Weight = r.f64()
		st.Alloc.ProcWatts = r.f64()
		st.Alloc.MemWatts = r.f64()
		st.Status = r.str()
		st.FellBack = r.bool()
		out.Steps = append(out.Steps, st)
	}
	out.Rejected = r.bool()
	return r.closeFrame()
}

// AppendScheduleRequest appends a TScheduleRequest frame. A request
// over MaxFrame (a cluster round naming tens of thousands of nodes and
// jobs) fails with ErrFrameTooLarge; such rounds must travel as JSON.
func AppendScheduleRequest(dst []byte, m *ScheduleRequest) ([]byte, error) {
	e, p := beginEnc(dst, TScheduleRequest)
	e.f64(m.Budget)
	e.u32(uint32(len(m.Nodes)))
	for i := range m.Nodes {
		e.str(m.Nodes[i].ID)
		e.str(m.Nodes[i].Platform)
	}
	e.u32(uint32(len(m.Jobs)))
	for i := range m.Jobs {
		e.str(m.Jobs[i].ID)
		e.str(m.Jobs[i].Workload)
	}
	e.u32(clampU32(m.TimeoutMS))
	return e.finish(p)
}

// DecodeScheduleRequest decodes a TScheduleRequest frame into out,
// reusing the Nodes and Jobs capacity.
func DecodeScheduleRequest(data []byte, out *ScheduleRequest) error {
	r, err := openFrame(data, TScheduleRequest)
	if err != nil {
		return err
	}
	out.Budget = r.f64()
	nn := r.count(minNode)
	out.Nodes = out.Nodes[:0]
	for i := 0; i < nn && r.err == nil; i++ {
		out.Nodes = append(out.Nodes, NodeJSON{ID: r.str(), Platform: r.str()})
	}
	nj := r.count(minJob)
	out.Jobs = out.Jobs[:0]
	for i := 0; i < nj && r.err == nil; i++ {
		out.Jobs = append(out.Jobs, JobJSON{ID: r.str(), Workload: r.str()})
	}
	out.TimeoutMS = int(r.u32())
	return r.closeFrame()
}

// AppendScheduleResponse appends a TScheduleResponse frame. Like the
// request shape it can legitimately exceed MaxFrame for huge rounds, in
// which case ErrFrameTooLarge tells the server to answer in JSON.
func AppendScheduleResponse(dst []byte, m *ScheduleResponse) ([]byte, error) {
	e, p := beginEnc(dst, TScheduleResponse)
	e.u32(uint32(len(m.Placements)))
	for i := range m.Placements {
		pl := &m.Placements[i]
		e.str(pl.Job)
		e.str(pl.Node)
		e.f64(pl.Budget)
		e.f64(pl.Alloc.ProcWatts)
		e.f64(pl.Alloc.MemWatts)
		e.f64(pl.ExpectedPerf)
		e.f64(pl.ExpectedPower)
	}
	e.u32(uint32(len(m.Deferred)))
	for _, d := range m.Deferred {
		e.str(d)
	}
	e.f64(m.PoolLeft)
	e.f64(m.TotalPower)
	return e.finish(p)
}

// DecodeScheduleResponse decodes a TScheduleResponse frame into out,
// reusing the Placements and Deferred capacity.
func DecodeScheduleResponse(data []byte, out *ScheduleResponse) error {
	r, err := openFrame(data, TScheduleResponse)
	if err != nil {
		return err
	}
	np := r.count(minPlacement)
	out.Placements = out.Placements[:0]
	for i := 0; i < np && r.err == nil; i++ {
		var pl PlacementJSON
		pl.Job = r.str()
		pl.Node = r.str()
		pl.Budget = r.f64()
		pl.Alloc.ProcWatts = r.f64()
		pl.Alloc.MemWatts = r.f64()
		pl.ExpectedPerf = r.f64()
		pl.ExpectedPower = r.f64()
		out.Placements = append(out.Placements, pl)
	}
	nd := r.count(minString)
	out.Deferred = out.Deferred[:0]
	for i := 0; i < nd && r.err == nil; i++ {
		out.Deferred = append(out.Deferred, r.str())
	}
	out.PoolLeft = r.f64()
	out.TotalPower = r.f64()
	return r.closeFrame()
}

// AppendTreeRequest appends a TTreeRequest frame. Like the schedule
// shapes, a request over MaxFrame (thousands of racks) fails with
// ErrFrameTooLarge and must travel as JSON.
func AppendTreeRequest(dst []byte, m *TreeRequest) ([]byte, error) {
	e, p := beginEnc(dst, TTreeRequest)
	e.f64(m.Budget)
	e.u32(uint32(len(m.Racks)))
	for i := range m.Racks {
		r := &m.Racks[i]
		e.str(r.ID)
		e.f64(r.CapWatts)
		e.u32(uint32(len(r.Nodes)))
		for j := range r.Nodes {
			n := &r.Nodes[j]
			e.str(n.ID)
			e.str(n.Platform)
			e.str(n.Workload)
			e.u32(clampU32(n.Priority))
		}
	}
	e.u32(clampU32(m.TimeoutMS))
	return e.finish(p)
}

// DecodeTreeRequest decodes a TTreeRequest frame into out, reusing the
// Racks capacity (per-rack node slices are reallocated).
func DecodeTreeRequest(data []byte, out *TreeRequest) error {
	r, err := openFrame(data, TTreeRequest)
	if err != nil {
		return err
	}
	out.Budget = r.f64()
	nr := r.count(minTreeRack)
	out.Racks = out.Racks[:0]
	for i := 0; i < nr && r.err == nil; i++ {
		var rk TreeRackJSON
		rk.ID = r.str()
		rk.CapWatts = r.f64()
		nn := r.count(minTreeNode)
		for j := 0; j < nn && r.err == nil; j++ {
			rk.Nodes = append(rk.Nodes, TreeNodeJSON{
				ID:       r.str(),
				Platform: r.str(),
				Workload: r.str(),
				Priority: int(r.u32()),
			})
		}
		out.Racks = append(out.Racks, rk)
	}
	out.TimeoutMS = int(r.u32())
	return r.closeFrame()
}

// AppendTreeResponse appends a TTreeResponse frame.
func AppendTreeResponse(dst []byte, m *TreeResponse) ([]byte, error) {
	e, p := beginEnc(dst, TTreeResponse)
	e.f64(m.Budget)
	e.f64(m.Granted)
	e.f64(m.Surplus)
	e.f64(m.TotalPerf)
	e.f64(m.Oversubscription)
	e.u32(uint32(len(m.Grants)))
	for i := range m.Grants {
		g := &m.Grants[i]
		e.str(g.Node)
		e.str(g.Rack)
		e.u32(clampU32(g.Priority))
		e.f64(g.Budget)
		e.f64(g.Alloc.ProcWatts)
		e.f64(g.Alloc.MemWatts)
		e.str(g.Status)
		e.f64(g.SurplusWatts)
		e.f64(g.ExpectedPerf)
	}
	e.u32(uint32(len(m.Racks)))
	for i := range m.Racks {
		rr := &m.Racks[i]
		e.str(rr.Rack)
		e.f64(rr.CapWatts)
		e.f64(rr.Budget)
		e.u32(clampU32(rr.Kept))
		e.u32(clampU32(rr.Shed))
	}
	e.u32(uint32(len(m.Shed)))
	for i := range m.Shed {
		s := &m.Shed[i]
		e.str(s.Node)
		e.str(s.Rack)
		e.u32(clampU32(s.Priority))
		e.f64(s.FloorWatts)
		e.str(s.Reason)
	}
	return e.finish(p)
}

// DecodeTreeResponse decodes a TTreeResponse frame into out, reusing
// the Grants, Racks, and Shed capacity.
func DecodeTreeResponse(data []byte, out *TreeResponse) error {
	r, err := openFrame(data, TTreeResponse)
	if err != nil {
		return err
	}
	out.Budget = r.f64()
	out.Granted = r.f64()
	out.Surplus = r.f64()
	out.TotalPerf = r.f64()
	out.Oversubscription = r.f64()
	ng := r.count(minTreeGrant)
	out.Grants = out.Grants[:0]
	for i := 0; i < ng && r.err == nil; i++ {
		var g TreeGrantJSON
		g.Node = r.str()
		g.Rack = r.str()
		g.Priority = int(r.u32())
		g.Budget = r.f64()
		g.Alloc.ProcWatts = r.f64()
		g.Alloc.MemWatts = r.f64()
		g.Status = r.str()
		g.SurplusWatts = r.f64()
		g.ExpectedPerf = r.f64()
		out.Grants = append(out.Grants, g)
	}
	nr := r.count(minRackGrant)
	out.Racks = out.Racks[:0]
	for i := 0; i < nr && r.err == nil; i++ {
		var rr TreeRackGrantJSON
		rr.Rack = r.str()
		rr.CapWatts = r.f64()
		rr.Budget = r.f64()
		rr.Kept = int(r.u32())
		rr.Shed = int(r.u32())
		out.Racks = append(out.Racks, rr)
	}
	ns := r.count(minTreeShed)
	out.Shed = out.Shed[:0]
	for i := 0; i < ns && r.err == nil; i++ {
		var s TreeShedJSON
		s.Node = r.str()
		s.Rack = r.str()
		s.Priority = int(r.u32())
		s.FloorWatts = r.f64()
		s.Reason = r.str()
		out.Shed = append(out.Shed, s)
	}
	return r.closeFrame()
}

// AppendError appends a TError frame. Error frames must always be
// encodable — they are what the server sends when encoding anything
// else failed — so an over-long message is clamped to the string-field
// cap here, explicitly, rather than ever failing.
func AppendError(dst []byte, code int, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst, p := beginFrame(dst, TError)
	dst = appendU16(dst, uint16(code))
	dst = appendU16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return endFrame(dst, p)
}

// DecodeError decodes a TError frame.
func DecodeError(data []byte) (Error, error) {
	r, err := openFrame(data, TError)
	if err != nil {
		return Error{}, err
	}
	e := Error{Code: int(r.u16()), Message: r.str()}
	return e, r.closeFrame()
}

func clampU32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if v > 1<<31 {
		return 1 << 31
	}
	return uint32(v)
}
