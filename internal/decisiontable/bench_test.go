package decisiontable

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/allocsvc"
	"repro/internal/evalpool"
	"repro/internal/wire"
)

// BenchmarkBinaryFastPath is the hot path the Makefile's fastpath-alloc
// gate pins at zero allocs/op: a binary coord frame decoded, served
// from a warm decision table, and encoded into a caller-provided
// buffer. Only table-hit budgets are benchmarked — a miss falls
// through to the exact path, which allocates by design.
func BenchmarkBinaryFastPath(b *testing.B) {
	s := New(Config{})
	prune(s, map[string][]string{
		"ivybridge": {"stream", "dgemm"},
		"haswell":   {"stream"},
		"titanxp":   {"gpustream"},
	})
	svc := allocsvc.New(allocsvc.Config{Workers: 1, Tables: s, Binary: true})
	defer svc.Close(context.Background())

	mix := []struct {
		platform, workload string
		budget             float64
	}{
		{"ivybridge", "stream", 208},
		{"ivybridge", "dgemm", 170},
		{"haswell", "stream", 190},
		{"titanxp", "gpustream", 180},
	}
	var frames [][]byte
	for _, m := range mix {
		if coordBuilt, _ := s.Build(m.platform, m.workload); !coordBuilt {
			b.Fatalf("no coord table for %s/%s", m.platform, m.workload)
		}
		// Perturb each base budget across the interpolated range and
		// keep only budgets the table actually serves, so the gate
		// measures the hit path rather than exact-only slivers.
		for i := 0; i < 64; i++ {
			req := wire.CoordRequest{Platform: m.platform, Workload: m.workload,
				Budget: m.budget - 8 + float64(i)*0.25, Strategy: "coord"}
			var out wire.CoordResponse
			if !s.Coord(&req, &out) {
				continue
			}
			frame, err := wire.AppendCoordRequest(nil, &req)
			if err != nil {
				b.Fatalf("encoding request frame: %v", err)
			}
			frames = append(frames, frame)
		}
	}
	if len(frames) < len(mix) {
		b.Fatalf("only %d table-hit frames across %d pairs", len(frames), len(mix))
	}

	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, out := svc.ServeBinary(ctx, frames[i%len(frames)], (*buf)[:0])
		if code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
		*buf = out
	}
}

// BenchmarkBuildPairs builds the coord (and, on CPU platforms, plan)
// tables of ten catalog pairs — CPU and GPU, paper and H100-class —
// on a fresh Set and a fresh, cold default engine per iteration: the
// whole cost of warming tables from nothing, profiles included.
func BenchmarkBuildPairs(b *testing.B) {
	pairs := [][2]string{
		{"ivybridge", "stream"}, {"h100", "llmchat"}, {"haswell", "sp"},
		{"titanxp", "gpustream"}, {"ivybridge", "is"}, {"h100", "hpcg"},
		{"haswell", "cg"}, {"titanv", "llmserve"}, {"titanxp", "hpcg"},
		{"titanxp", "llmchat"},
	}
	prev := evalpool.Default()
	defer evalpool.SetDefault(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evalpool.SetDefault(evalpool.New(evalpool.Options{}))
		s := New(Config{})
		for _, pr := range pairs {
			if coordBuilt, _ := s.Build(pr[0], pr[1]); !coordBuilt {
				b.Fatalf("no coord table for %v", pr)
			}
		}
	}
}
