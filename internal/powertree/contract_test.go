package powertree

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestSolveSerialParallelContract: the serial reference engine defines
// the answer; a shared 2-worker engine must return it exactly on the
// exact-mix tree shapes (64, 128 and 256 leaves at the four
// provisioning levels), on the cold pass that samples the curves and
// on the warm one that reads them back from the memo.
func TestSolveSerialParallelContract(t *testing.T) {
	defer evalpool.SetDefault(evalpool.SetDefault(evalpool.Serial()))
	type shape struct{ leaves, level int }
	var shapes []shape
	for _, n := range []int{64, 128, 256} {
		for level := 0; level < 4; level++ {
			shapes = append(shapes, shape{n, level})
		}
	}
	solve := func(s shape) *Result {
		t.Helper()
		res, err := Solve(benchTree(t, s.leaves), benchBudget(s.leaves, s.level))
		if err != nil {
			t.Fatalf("%d leaves, level %d: %v", s.leaves, s.level, err)
		}
		return res
	}
	want := make([]*Result, len(shapes))
	for i, s := range shapes {
		want[i] = solve(s)
	}
	evalpool.SetDefault(evalpool.New(evalpool.Options{Workers: 2}))
	for _, pass := range []string{"cold", "warm"} {
		for i, s := range shapes {
			if got := solve(s); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%d leaves, level %d, %s pass: differs from serial:\n%s\nvs\n%s",
					s.leaves, s.level, pass, got, want[i])
			}
		}
	}
	if evalpool.Default().Stats().Hits == 0 {
		t.Fatal("the warm pass read no curve back from the memo")
	}
}

// TestCurveSetClassesByValue: a leaf running a same-named variant of
// its neighbour's workload gets its own curve — the one it gets when
// built alone — not its namesake's.
func TestCurveSetClassesByValue(t *testing.T) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	variant := stream
	variant.Phases = slices.Clone(stream.Phases)
	variant.Phases[0].BytesPerUnit *= 4
	tree := func(ws ...workload.Workload) Spec {
		r := Rack{ID: "r0"}
		for i, w := range ws {
			r.Nodes = append(r.Nodes, Node{ID: string(rune('a' + i)), Platform: p, Workload: w})
		}
		return Spec{Racks: []Rack{r}}
	}
	build := func(spec Spec) *CurveSet {
		t.Helper()
		cs, err := BuildCurves(spec)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	curve := func(cs *CurveSet, n *Node) curve {
		t.Helper()
		c, err := cs.curveFor(n)
		if err != nil {
			t.Fatal(err)
		}
		return *c
	}
	for _, e := range []*evalpool.Engine{evalpool.Serial(), evalpool.New(evalpool.Options{})} {
		prev := evalpool.SetDefault(e)
		both := tree(stream, variant)
		cs := build(both)
		alone := tree(variant)
		want := curve(build(alone), &alone.Racks[0].Nodes[0])
		if got := curve(cs, &both.Racks[0].Nodes[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("variant beside its namesake: base %v, built alone: base %v", got.base, want.base)
		}
		if got := curve(cs, &both.Racks[0].Nodes[0]); reflect.DeepEqual(got, want) {
			t.Errorf("stream and its variant share the curve with base %v", got.base)
		}
		if pairs := cs.Pairs(); len(pairs) != 2 {
			t.Errorf("pairs %v, want two classes", pairs)
		}
		evalpool.SetDefault(prev)
	}
}

// TestSameWorkloadCoversEveryField: sameWorkload lists the workload's
// fields by hand, so a change to any one of them must tell two
// workloads apart, and two catalog lookups of one workload must match.
func TestSameWorkloadCoversEveryField(t *testing.T) {
	w, err := workload.ByName("bt")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := workload.ByName("bt"); !sameWorkload(w, again) {
		t.Fatal("two lookups of bt differ")
	}
	typ := reflect.TypeOf(w)
	for i := 0; i < typ.NumField(); i++ {
		v := w
		v.Phases = slices.Clone(w.Phases)
		f := reflect.ValueOf(&v).Elem().Field(i)
		switch {
		case f.Kind() == reflect.String:
			f.SetString(f.String() + "x")
		case f.Kind() == reflect.Int:
			f.SetInt(f.Int() + 1)
		case f.Kind() == reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case f.Type() == reflect.TypeOf(w.Phases):
			v.Phases[len(v.Phases)-1].StallActivity += 0.01
		default:
			t.Fatalf("field %s of kind %s: teach sameWorkload and this test about it", typ.Field(i).Name, f.Kind())
		}
		if sameWorkload(w, v) {
			t.Errorf("sameWorkload ignores field %s", typ.Field(i).Name)
		}
	}
	p, err := hw.PlatformByName("titanxp")
	if err != nil {
		t.Fatal(err)
	}
	q, _ := hw.PlatformByName("titanxp")
	if !samePlatform(p, q) {
		t.Fatal("two lookups of titanxp differ")
	}
	q.GPU.Mem.PowerMax++
	if samePlatform(p, q) {
		t.Fatal("samePlatform ignores the GPU memory spec")
	}
}
