package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, // p99 is the highest the ladder offers
		{1000, 0.99},   // rank 990: exactly 10 beyond
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{5, 0.5}, // too few for any tail: the median
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0.5 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: quantile %v has only %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0, 1}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Layer: layerCall, Start: 0, End: 100, Parent: -1},
		// Two overlapping children: [10,50) ∪ [40,70) covers 60.
		{Layer: layerRoundTrip, Start: 10, End: 50, Parent: 0},
		{Layer: layerRoundTrip, Start: 40, End: 70, Parent: 0},
		// A grandchild inside the first child.
		{Layer: layerHandler, Start: 20, End: 30, Parent: 1},
		// A child reaching past its parent is clipped to it.
		{Layer: layerHandler, Start: 60, End: 90, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{40, 30, 20, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestGroupLinksSpansOfOneRequest(t *testing.T) {
	rec := newRecorder()
	key := lookupKey{route: "/v1/coord", platform: "ivybridge", workload: "stream", strategy: "coord", budget: 200.5}
	rec.expect(key, 7)
	rec.add(span{Req: 7, Layer: layerCall, Start: 0, End: 100})
	rec.add(span{Req: 7, Layer: layerRoundTrip, Start: 10, End: 90})
	rec.add(span{Req: 7, Layer: layerHandler, Start: 20, End: 80})
	rec.add(span{Layer: layerLookup, Start: 30, End: 40, Hit: true, key: key})
	rec.add(span{Req: 8, Layer: layerCall, Start: 5, End: 50})
	groups := rec.group()
	if len(groups) != 2 || groups[0].id != 7 || len(groups[0].spans) != 4 {
		t.Fatalf("groups = %+v, want request 7 with 4 spans and request 8", groups)
	}
	for i, s := range groups[0].spans {
		if s.Parent != i-1 {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Layer, s.Parent, i-1)
		}
	}
	if self := selfTimes(groups[0].spans); self[0] != 20 || self[3] != 10 {
		t.Errorf("self times = %v", self)
	}
}

func TestSeedGivesByteIdenticalStream(t *testing.T) {
	for name, gen := range map[string]func(uint64, int, int) []genReq{
		"fastpath": genFastpath, "exact-mix": genExactMix,
	} {
		a, err := json.Marshal(gen(42, phaseNominal, 500))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(gen(42, phaseNominal, 500))
		c, _ := json.Marshal(gen(43, phaseNominal, 500))
		d, _ := json.Marshal(gen(42, phaseTraced, 500))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", name)
		}
		if bytes.Equal(a, c) || bytes.Equal(a, d) {
			t.Errorf("%s: a different seed or phase gave the same stream", name)
		}
	}
}

func TestExactMixCompositionIsTheSameForEverySeed(t *testing.T) {
	a := genExactMix(1, phaseNominal, 1150)
	b := genExactMix(2, phaseNominal, 1150)
	routes := map[string]int{}
	dups := 0
	keys := map[string]bool{}
	repeats := 0
	for i := range a {
		if a[i].Route != b[i].Route || a[i].At != b[i].At {
			t.Fatalf("request %d: seeds differ in route or due time (%s@%v vs %s@%v)",
				i, a[i].Route, a[i].At, b[i].Route, b[i].At)
		}
		if i > 0 && a[i-1].At == a[i].At {
			dups++
			continue
		}
		routes[a[i].Route]++
		k, _ := json.Marshal(a[i])
		k = k[bytes.IndexByte(k, ','):] // drop the due time
		if keys[string(k)] {
			repeats++
		}
		keys[string(k)] = true
	}
	// 1000 distinct requests plus 150 duplicates: the weights exactly.
	for _, r := range exactRoutes {
		if routes[r.route] != r.weight {
			t.Errorf("%s: %d of 1000 requests, want %d", r.route, routes[r.route], r.weight)
		}
	}
	if last := a[len(a)-1].At; last < float64(len(a)-2) {
		t.Errorf("1150 requests end at slot %v: the offered rate undercounts them", last)
	}
	if dups != 150 {
		t.Errorf("%d duplicates in 1150 requests, want 150", dups)
	}
	if repeats == 0 {
		t.Error("no request key repeats: the memo would see no hits")
	}
}

func TestSearchMaxRateIsMonotone(t *testing.T) {
	const res = 0.03
	prev := 0.0
	for knee := 541.0; knee < 1850; knee *= 1.01 { // 1000·1.08^±8: the searched range
		probes := 0
		got := searchMaxRate(1000, 1.08, res, 8, func(r float64) bool { probes++; return r <= knee })
		if got < prev {
			t.Fatalf("knee %.1f: result %.1f below the result %.1f for a lower knee", knee, got, prev)
		}
		if got > knee || got < knee/(1+res) {
			t.Errorf("knee %.1f: result %.1f not within the %v resolution", knee, got, res)
		}
		if probes > 14 {
			t.Errorf("knee %.1f: %d probes", knee, probes)
		}
		prev = got
	}
	if got := searchMaxRate(1000, 1.08, res, 8, func(float64) bool { return false }); got != 0 {
		t.Errorf("no passing rate: got %v, want 0", got)
	}
}

func TestZipfFavorsLowRanks(t *testing.T) {
	z := newZipf(len(fastPairs), 1.1)
	r := newRand(1, 0)
	counts := make([]int, len(fastPairs))
	for i := 0; i < 20000; i++ {
		counts[z.draw(r)]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0] {
			t.Errorf("rank %d drawn %d times, more than rank 0's %d", i, counts[i], counts[0])
		}
	}
	if math.Abs(z.cdf[len(z.cdf)-1]-1) > 1e-12 {
		t.Errorf("cdf ends at %v", z.cdf[len(z.cdf)-1])
	}
}

// TestMetricsMatchBenchmarkFile keeps BENCHMARK.json and the program's
// metric definitions in step.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

func TestMixMedianWeighsEachRoutesMedian(t *testing.T) {
	// 52 fast answers (1..52 ms) and 48 slow ones (101..148 ms): the
	// plain median is the fast route's slowest answer, 52 ms; the mix
	// median is 0.52·26 + 0.48·124.
	fast, slow := &dist{}, &dist{}
	for i := 1; i <= 52; i++ {
		fast.add(float64(i))
	}
	for i := 101; i <= 148; i++ {
		slow.add(float64(i))
	}
	if m := mixMedian(map[string]*dist{"fast": fast, "slow": slow}); math.Abs(m-(0.52*26+0.48*124)) > 1e-9 {
		t.Errorf("mixMedian = %v, want %v", m, 0.52*26+0.48*124)
	}
	if m := mixMedian(map[string]*dist{"slow": slow}); m != slow.q(0.5) {
		t.Errorf("one route: mixMedian = %v, want the plain median %v", m, slow.q(0.5))
	}
	if m := mixMedian(map[string]*dist{}); m != 0 {
		t.Errorf("no answers: mixMedian = %v, want 0", m)
	}
}

func TestPhaseTailIsPooled(t *testing.T) {
	// A stall hitting a quarter of the phase must reach the tail: 590
	// of 4000 answers are slow, so the pooled p99 is the stall.
	outs := make([]outcome, 4000)
	routes := make([]string, len(outs))
	for i := range outs {
		outs[i] = outcome{sent: true, lat: time.Duration(i%100) * time.Millisecond}
		routes[i] = "/v1/coord"
	}
	for i := 1010; i < 1600; i++ {
		outs[i].lat = time.Second
	}
	pr := summarize("p", 1, outs, routes, false)
	if pr.TailQ != 0.99 || pr.Tailms != 1000 {
		t.Errorf("p%v %v; want p0.99 1000", pr.TailQ, pr.Tailms)
	}
	if pr.passes(100) {
		t.Error("a phase whose pooled tail exceeds the limit passed")
	}
}
