package powertree

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// benchLeafPairs are the six (platform, workload) pairs of the
// perfbench simulate tree.
var benchLeafPairs = [][2]string{
	{"ivybridge", "stream"}, {"ivybridge", "dgemm"}, {"haswell", "cg"},
	{"haswell", "ft"}, {"titanxp", "sgemm"}, {"h100", "llmserve"},
}

// benchTree builds the perfbench simulate tree shape: leaves nodes in
// racks of 16, every fourth rack capped at 150 W a node, six pairs
// interleaved across racks, priorities 0–2.
func benchTree(tb testing.TB, leaves int) Spec {
	tb.Helper()
	var spec Spec
	for k := 0; k < leaves/16; k++ {
		rack := Rack{ID: fmt.Sprintf("r%03d", k)}
		if k%4 == 3 {
			rack.Cap = 16 * 150
		}
		for j := 0; j < 16; j++ {
			i := 16*k + j
			pw := benchLeafPairs[(i*7+k)%len(benchLeafPairs)]
			p, err := hw.PlatformByName(pw[0])
			if err != nil {
				tb.Fatal(err)
			}
			w, err := workload.ByName(pw[1])
			if err != nil {
				tb.Fatal(err)
			}
			rack.Nodes = append(rack.Nodes, Node{ID: fmt.Sprintf("%s-%02d", rack.ID, j), Platform: p, Workload: w, Priority: i % 3})
		}
		spec.Racks = append(spec.Racks, rack)
	}
	return spec
}

// benchBudget is the perfbench simulate budget at provisioning level
// 0–3 for a tree of leaves nodes.
func benchBudget(leaves, level int) units.Power {
	return units.Power(float64(leaves) * (130 + 20*float64(level)))
}

// BenchmarkSolve4096 times one full Solve (curve build on a warm
// engine, then the fill) of the 4096-leaf simulate tree, cycling the
// four provisioning levels as the simulate rounds do.
func BenchmarkSolve4096(b *testing.B) {
	spec := benchTree(b, 4096)
	if _, err := Solve(spec, benchBudget(4096, 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(spec, benchBudget(4096, i%4)); err != nil {
			b.Fatal(err)
		}
	}
}
