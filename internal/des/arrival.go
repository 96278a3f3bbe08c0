// Package des is the cluster queue simulator for power-bounded
// clusters: it runs timed jobs through the cluster scheduler's
// admission rule (Scheduler.Admit) under a seeded open-arrival process
// (bursty, optionally diurnal), budget shocks and node outages from
// internal/faults, and scales to tens of thousands of nodes and
// millions of jobs with streaming statistics.
//
// One engine runs every configuration: one event loop (run) over an
// absolute clock, one completion heap, one queue and one admission core
// (admit). It owns the fault cursors, the event order, the event bound
// and starvation checks, node placement (a FIFO of free nodes per
// hardware kind), the cached admission pass, shock eviction (latest
// start, first admitted on ties), the pool-conservation audit and the
// fault accounting. The mode only switches the per-job records: exact
// mode (ModeExact) keeps the per-job result and transition log and
// reproduces the frozen goldens in testdata byte for byte; fast mode
// (ModeFast) keeps neither. Both return the same Result bit for bit,
// and replay it from the same seed.
//
// A run is a pipeline of three goroutines (pipeline.go). The producer
// draws the arrival trace into a job store of fixed-size chunks that
// never move, publishing a count every few hundred jobs. The event
// loop reads the published prefix and waits only when it has consumed
// it; it emits one compact record per event. The recorder folds those
// records, in order, into the trace hash, the completion statistics and
// exact mode's per-job result. The producer owns a record until it is
// published, the loop from then on; a finished job's record is only
// read. The fault horizon, which depends on the whole trace's work, is
// a monotone test (faults.Horizon): an edge is inside once the
// published prefix's work already puts the horizon past it, and
// outside only against the final sum, so every answer is the one the
// whole trace gives.
package des

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
)

// defaultUnits is the mean work per job when the spec leaves units
// unset: 2e12 work units, the same default the pbc cluster demos use.
const defaultUnits = 2e12

// defaultPeriod is the diurnal period when the spec enables diurnal
// modulation without naming one: a 24-hour day in seconds.
const defaultPeriod = 86400.0

// ArrivalSpec describes a seeded open-arrival process. Arrival events
// form a (possibly nonhomogeneous) Poisson process; each event carries a
// geometric burst of jobs; each job draws its work size independently.
// Everything the process does is a pure function of (ArrivalSpec, seed):
// two runs with equal specs and seeds generate identical traffic.
type ArrivalSpec struct {
	// Rate is the mean arrival-event rate in events per simulated
	// second. Zero disables arrivals.
	Rate float64
	// Burst is the mean number of jobs per arrival event (geometric,
	// always at least 1). Values at or below 1 mean single-job events.
	Burst float64
	// Diurnal in [0, 1] modulates the rate sinusoidally:
	// rate(t) = Rate * (1 + Diurnal*sin(2*pi*t/Period)).
	Diurnal float64
	// Period is the diurnal period in seconds. Zero defaults to a
	// 24-hour day when Diurnal is non-zero.
	Period float64
	// Units is the mean work per job in workload units. Zero defaults
	// to 2e12.
	Units float64
	// Spread in [0, 1) sizes jobs uniformly in Units*[1-Spread,
	// 1+Spread]. Zero means every job carries exactly Units work.
	Spread float64
}

// arrivalFields maps spec-string keys to accessors, in the canonical
// (sorted) order used by String.
var arrivalFields = []struct {
	key string
	get func(*ArrivalSpec) *float64
}{
	{"burst", func(s *ArrivalSpec) *float64 { return &s.Burst }},
	{"diurnal", func(s *ArrivalSpec) *float64 { return &s.Diurnal }},
	{"period", func(s *ArrivalSpec) *float64 { return &s.Period }},
	{"rate", func(s *ArrivalSpec) *float64 { return &s.Rate }},
	{"spread", func(s *ArrivalSpec) *float64 { return &s.Spread }},
	{"units", func(s *ArrivalSpec) *float64 { return &s.Units }},
}

// ParseArrivalSpec parses a comma-separated key=value list, e.g.
//
//	"rate=2,burst=1.5,diurnal=0.3,period=3600,units=2e12"
//
// Unknown keys, repeated keys, and malformed values are errors. The
// empty string parses to the zero ArrivalSpec (no arrivals).
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	var sp ArrivalSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return ArrivalSpec{}, fmt.Errorf("des: empty entry in arrival spec %q", s)
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return ArrivalSpec{}, fmt.Errorf("des: entry %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return ArrivalSpec{}, fmt.Errorf("des: duplicate key %q", key)
		}
		seen[key] = true
		dst := arrivalFieldByKey(&sp, key)
		if dst == nil {
			return ArrivalSpec{}, fmt.Errorf("des: unknown key %q (valid: %s)", key, strings.Join(arrivalKeys(), " "))
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return ArrivalSpec{}, fmt.Errorf("des: key %q: bad value %q: %w", key, val, err)
		}
		*dst = f
	}
	if err := sp.Validate(); err != nil {
		return ArrivalSpec{}, err
	}
	return sp, nil
}

func arrivalFieldByKey(sp *ArrivalSpec, key string) *float64 {
	for _, f := range arrivalFields {
		if f.key == key {
			return f.get(sp)
		}
	}
	return nil
}

func arrivalKeys() []string {
	keys := make([]string, len(arrivalFields))
	for i, f := range arrivalFields {
		keys[i] = f.key
	}
	sort.Strings(keys)
	return keys
}

// String renders the spec canonically: non-zero fields only, sorted by
// key. ParseArrivalSpec(s.String()) reproduces s exactly.
func (sp ArrivalSpec) String() string {
	var parts []string
	for _, f := range arrivalFields {
		if v := *f.get(&sp); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%s", f.key, strconv.FormatFloat(v, 'g', -1, 64)))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Validate rejects out-of-range rates and magnitudes.
func (sp ArrivalSpec) Validate() error {
	for _, f := range arrivalFields {
		if v := *f.get(&sp); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("des: %s=%v is not finite", f.key, v)
		}
		if v := *f.get(&sp); v < 0 {
			return fmt.Errorf("des: %s=%v is negative", f.key, v)
		}
	}
	if sp.Diurnal > 1 {
		return fmt.Errorf("des: diurnal=%v exceeds 1 (rate would go negative)", sp.Diurnal)
	}
	if sp.Spread >= 1 {
		return fmt.Errorf("des: spread=%v must be below 1 (jobs would carry zero work)", sp.Spread)
	}
	return nil
}

// Zero reports whether the spec generates no arrivals.
func (sp ArrivalSpec) Zero() bool { return sp.Rate == 0 }

// period returns the effective diurnal period.
func (sp ArrivalSpec) period() float64 {
	if sp.Period > 0 {
		return sp.Period
	}
	return defaultPeriod
}

// meanUnits returns the effective mean job size.
func (sp ArrivalSpec) meanUnits() float64 {
	if sp.Units > 0 {
		return sp.Units
	}
	return defaultUnits
}

// rateAt is the instantaneous arrival rate at simulated time t.
func (sp ArrivalSpec) rateAt(t float64) float64 {
	if sp.Diurnal == 0 {
		return sp.Rate
	}
	return sp.Rate * (1 + sp.Diurnal*math.Sin(2*math.Pi*t/sp.period()))
}

// jobArrival is one generated job: when it enters the queue and how
// much work it carries.
type jobArrival struct {
	at    float64
	units float64
}

// arrivalDraws draws the arrival trace for [0, horizon) one job at a
// time: nonhomogeneous Poisson event times by thinning against the peak
// rate Rate*(1+Diurnal), geometric burst sizes, and uniform job sizing.
// Each random dimension consumes its own forked stream keyed off seed,
// so e.g. changing the burst mean cannot shift event times. The trace
// ends at the horizon or after maxJobs jobs, whichever comes first. Run's
// producer drains it into the job store; generateArrivals collects it.
type arrivalDraws struct {
	sp                        ArrivalSpec
	times, thin, burst, sizes *faults.RNG
	lamMax, trough, mean      float64
	horizon, t                float64
	left                      int // jobs the trace may still draw
	inBurst                   int // jobs left in the current event's burst
}

func newArrivalDraws(sp ArrivalSpec, seed uint64, horizon float64, maxJobs int) arrivalDraws {
	if sp.Zero() || horizon <= 0 || maxJobs <= 0 {
		return arrivalDraws{}
	}
	root := faults.NewRNG(seed)
	return arrivalDraws{
		sp:    sp,
		times: root.Fork("des.arrival.time"),
		thin:  root.Fork("des.arrival.thin"),
		burst: root.Fork("des.arrival.burst"),
		sizes: root.Fork("des.arrival.size"),
		// A thinning draw below the rate's trough is accepted wherever it
		// falls, so it needs no sine. The margin of 1e-9·Rate dwarfs the
		// few ulps of Rate by which the computed rateAt can undershoot the
		// trough.
		lamMax:  sp.Rate * (1 + sp.Diurnal),
		trough:  sp.Rate * (1 - sp.Diurnal - 1e-9),
		mean:    sp.meanUnits(),
		horizon: horizon,
		left:    maxJobs,
	}
}

// expect is the presize for the whole trace: the expected jobs at the
// peak rate, so a diurnal trace does not outgrow it, clamped to the
// jobs left in float space (the product can overflow an int).
func (d *arrivalDraws) expect() int {
	if d.left <= 0 {
		return 0
	}
	return int(math.Min(d.lamMax*d.horizon*math.Max(d.sp.Burst, 1), float64(d.left)))
}

// next draws the next job; ok is false once the trace has ended.
func (d *arrivalDraws) next() (a jobArrival, ok bool) {
	if d.left <= 0 {
		return a, false
	}
	for d.inBurst == 0 {
		d.t += d.times.Exp(1 / d.lamMax)
		if d.t >= d.horizon {
			d.left = 0
			return a, false
		}
		if d.sp.Diurnal > 0 {
			if u := d.thin.Float64() * d.lamMax; u >= d.trough && u > d.sp.rateAt(d.t) {
				continue // thinned: the modulated rate is below the peak here
			}
		}
		d.inBurst = d.burst.Geometric(d.sp.Burst)
	}
	d.inBurst--
	d.left--
	u := d.mean
	if d.sp.Spread > 0 {
		u = d.mean * (1 - d.sp.Spread + 2*d.sp.Spread*d.sizes.Float64())
	}
	return jobArrival{at: d.t, units: u}, true
}

// generateArrivals materializes the whole arrival trace for [0,
// horizon), at most maxJobs jobs: arrivalDraws collected.
func generateArrivals(sp ArrivalSpec, seed uint64, horizon float64, maxJobs int) []jobArrival {
	d := newArrivalDraws(sp, seed, horizon, maxJobs)
	if d.left <= 0 {
		return nil
	}
	out := make([]jobArrival, 0, d.expect())
	for a, ok := d.next(); ok; a, ok = d.next() {
		out = append(out, a)
	}
	return out
}
