package evalpool

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// key addresses one memoized simulator call. The fingerprint pins the
// (platform, workload) content, the op pins the simulator entry point,
// and a/b/c carry the op's numeric knobs in canonical units — so two
// different call kinds with coincidentally equal numbers (a 140 W board
// cap with a 40 W memory budget versus a 140 W cap with a 40 Hz clock)
// can never alias. Keys are plain comparable structs used directly as
// map keys: equal keys are identical calls by construction, and there
// is no hash-collision failure mode beyond the content fingerprint.
type key struct {
	fp      uint64
	op      Op
	a, b, c float64
}

// key canonicalizes the request's knobs for its op.
func (r Request) key(fp uint64) key {
	k := key{fp: fp, op: r.Op}
	switch r.Op {
	case OpCPU:
		k.a, k.b = r.Proc.Watts(), r.Mem.Watts()
	case OpGPUClock:
		k.a, k.b = r.Proc.Watts(), r.Clock.Hz()
	case OpGPUMemPower:
		k.a, k.b = r.Proc.Watts(), r.Mem.Watts()
	case OpGPUOffsets:
		k.a, k.b, k.c = r.Proc.Watts(), r.SMOffset.Hz(), r.MemOffset.Hz()
	}
	return k
}

// shardCount is the maximum shard fan-out, a power of two so shard
// selection is a mask.
const shardCount = 16

// hash mixes every key field into a well-distributed 64-bit value the
// cache masks down to its shard count. The fingerprint alone is
// constant across a sweep, and round knob values leave the low
// mantissa bits zero, so the final avalanche is what spreads a sweep's
// points over the shards.
func (k key) hash() uint64 {
	h := hasher(k.fp)
	h.u64(uint64(k.op))
	h.f64(k.a)
	h.f64(k.b)
	h.f64(k.c)
	return h.sum()
}

// cache is the sharded memo store. Each shard has its own lock, so
// workers hammering different points rarely contend; the size bound is
// enforced per shard with arbitrary-victim eviction (which entry goes
// is irrelevant for correctness — only future hit rates differ).
//
// Bounds smaller than shardCount use a reduced power-of-two fan-out so
// the enforced capacity (perShard * nShards) never exceeds the
// requested total: the old fixed fan-out rounded perShard up to 1 and
// silently admitted up to 16 entries when fewer were asked for.
type cache struct {
	perShard int
	nShards  int
	mask     uint64
	shards   [shardCount]shard

	hits, misses, evictions atomic.Uint64
}

type shard struct {
	mu sync.Mutex
	m  map[key]sim.Result
}

func newCache(total int) *cache {
	if total < 1 {
		total = 1
	}
	n := 1
	for n*2 <= shardCount && n*2 <= total {
		n *= 2
	}
	c := &cache{perShard: total / n, nShards: n, mask: uint64(n - 1)}
	for i := 0; i < n; i++ {
		c.shards[i].m = make(map[key]sim.Result)
	}
	return c
}

func (c *cache) shard(k key) *shard {
	return &c.shards[int(k.hash()&c.mask)]
}

func (c *cache) get(k key) (sim.Result, bool) {
	s := c.shard(k)
	s.mu.Lock()
	res, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return sim.Result{}, false
	}
	c.hits.Add(1)
	return cloneResult(res), true
}

func (c *cache) put(k key, res sim.Result) {
	// Store a private copy so later mutation of the caller's result (or
	// of a result handed out on a hit) can never corrupt the cache.
	res = cloneResult(res)
	s := c.shard(k)
	s.mu.Lock()
	if _, exists := s.m[k]; !exists && len(s.m) >= c.perShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[k] = res
	s.mu.Unlock()
}

func (c *cache) len() int {
	n := 0
	for i := 0; i < c.nShards; i++ {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// capacity is the enforced entry bound; by construction it never
// exceeds the total newCache was asked for.
func (c *cache) capacity() int { return c.perShard * c.nShards }

// cloneResult deep-copies a result; phase entries are plain values, so
// copying the slice copies everything.
func cloneResult(r sim.Result) sim.Result {
	if r.Phases != nil {
		r.Phases = append([]sim.PhaseResult(nil), r.Phases...)
	}
	return r
}
