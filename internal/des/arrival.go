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
// start, first admitted on ties), the pool-conservation audit, the
// fault accounting, the trace hash and the statistics. The mode only
// switches the per-job records: exact mode (ModeExact) keeps the
// per-job result and transition log and reproduces the frozen goldens
// in testdata byte for byte; fast mode (ModeFast) keeps neither. Both
// return the same Result bit for bit, and replay it from the same seed.
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

// generateArrivals materializes the arrival trace for [0, horizon):
// nonhomogeneous Poisson event times by thinning against the peak rate
// Rate*(1+Diurnal), geometric burst sizes, and uniform job sizing. Each
// random dimension consumes its own forked stream keyed off seed, so
// e.g. changing the burst mean cannot shift event times. maxJobs bounds
// the trace; generation stops (without error) once reached.
func generateArrivals(sp ArrivalSpec, seed uint64, horizon float64, maxJobs int) []jobArrival {
	if sp.Zero() || horizon <= 0 || maxJobs <= 0 {
		return nil
	}
	root := faults.NewRNG(seed)
	times := root.Fork("des.arrival.time")
	thin := root.Fork("des.arrival.thin")
	burst := root.Fork("des.arrival.burst")
	sizes := root.Fork("des.arrival.size")

	lamMax := sp.Rate * (1 + sp.Diurnal)
	// A thinning draw below the rate's trough is accepted wherever it
	// falls, so it needs no sine. The margin of 1e-9·Rate dwarfs the few
	// ulps of Rate by which the computed rateAt can undershoot the trough.
	trough := sp.Rate * (1 - sp.Diurnal - 1e-9)
	mean := sp.meanUnits()
	// Presize for the expected trace, clamped in float space: the product
	// can overflow an int.
	expect := math.Min(sp.Rate*horizon*math.Max(sp.Burst, 1), float64(maxJobs))
	out := make([]jobArrival, 0, int(expect))
	t := 0.0
	for len(out) < maxJobs {
		t += times.Exp(1 / lamMax)
		if t >= horizon {
			break
		}
		if sp.Diurnal > 0 {
			if u := thin.Float64() * lamMax; u >= trough && u > sp.rateAt(t) {
				continue // thinned: the modulated rate is below the peak here
			}
		}
		n := burst.Geometric(sp.Burst)
		for i := 0; i < n && len(out) < maxJobs; i++ {
			u := mean
			if sp.Spread > 0 {
				u = mean * (1 - sp.Spread + 2*sp.Spread*sizes.Float64())
			}
			out = append(out, jobArrival{at: t, units: u})
		}
	}
	return out
}
