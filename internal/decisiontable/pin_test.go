package decisiontable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"testing"

	"repro/internal/evalpool"
	"repro/internal/wire"
)

// pinPairs are the fastpath traffic's ten pairs, pinned by
// TestTablesPinned and built by BenchmarkBuildPairs: CPU and GPU, paper
// and H100-class.
var pinPairs = [][2]string{
	{"ivybridge", "stream"}, {"h100", "llmchat"}, {"haswell", "sp"},
	{"titanxp", "gpustream"}, {"ivybridge", "is"}, {"h100", "hpcg"},
	{"haswell", "cg"}, {"titanv", "llmserve"}, {"titanxp", "hpcg"},
	{"titanxp", "llmchat"},
}

// pinnedTablesHash is the SHA-256 of the pin pairs' table boundaries
// and their answers over pinBudgets, recorded before the table build
// bound each pair once and the power actuators warm-started their bin
// search. Any change to it means a table or a served answer moved.
const pinnedTablesHash = "5c99260b20d33acdba6dd9576f7b19007db18f740be02dfb552c72ea2ecd2de8"

// pinBudgets is a lookup grid over a table with boundaries bounds:
// sweepBudgets across and beyond its range, every boundary, one ulp
// either side of it, and every segment's midpoint.
func pinBudgets(bounds []float64) []float64 {
	bs := sweepBudgets(bounds[0], bounds[len(bounds)-1])
	for i, b := range bounds {
		bs = append(bs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		if i+1 < len(bounds) {
			bs = append(bs, (b+bounds[i+1])/2)
		}
	}
	return bs
}

// hashTables hashes every boundary (as float bits) and the JSON of
// every lookup answer, a miss hashed as "miss".
func hashTables(t *testing.T, s *Set) (sum string, nBounds, nLookups int) {
	t.Helper()
	h := sha256.New()
	putFloats := func(h hash.Hash, fs []float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(len(fs)))
		h.Write(buf[:])
		for _, f := range fs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	putAnswer := func(hit bool, v any) {
		if !hit {
			h.Write([]byte("miss\n"))
			return
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
		nLookups++
	}
	for _, pr := range pinPairs {
		coordBuilt, planBuilt := s.Build(pr[0], pr[1])
		if !coordBuilt {
			t.Fatalf("no coord table for %v", pr)
		}
		h.Write([]byte("coord " + pr[0] + "/" + pr[1] + "\n"))
		cb := s.CoordBoundaries(pr[0], pr[1])
		putFloats(h, cb)
		nBounds += len(cb)
		for _, b := range pinBudgets(cb) {
			req := wire.CoordRequest{Platform: pr[0], Workload: pr[1], Budget: b, Strategy: "coord"}
			var resp wire.CoordResponse
			putAnswer(s.Coord(&req, &resp), resp)
		}
		if !planBuilt {
			continue
		}
		h.Write([]byte("plan " + pr[0] + "/" + pr[1] + "\n"))
		pb := s.PlanBoundaries(pr[0], pr[1])
		putFloats(h, pb)
		nBounds += len(pb)
		for _, b := range pinBudgets(pb) {
			req := wire.PlanRequest{Platform: pr[0], Workload: pr[1], Budget: b}
			var resp wire.PlanResponse
			putAnswer(s.Plan(&req, &resp), resp)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nBounds, nLookups
}

// TestTablesPinned: the ten pairs' tables and a lookup grid over each
// hash to the recorded value, on a cold engine.
func TestTablesPinned(t *testing.T) {
	prev := evalpool.SetDefault(evalpool.New(evalpool.Options{}))
	defer evalpool.SetDefault(prev)
	sum, nBounds, nLookups := hashTables(t, New(Config{}))
	if sum != pinnedTablesHash {
		t.Errorf("tables hash %s (%d boundaries, %d table hits), pinned %s",
			sum, nBounds, nLookups, pinnedTablesHash)
	}
}
