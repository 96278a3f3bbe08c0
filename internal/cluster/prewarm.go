package cluster

import (
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/workload"
)

// Prewarm profiles every (node platform, workload) pair ahead of the
// first round, so scheduling never profiles on the request path. It is
// the cluster-side table builder: the envelope and split passes consume
// exactly these profiles, memoized on the shared evaluation engine, and
// with them precomputed a round reduces to arithmetic over memoized
// profiles plus memoized simulation.
//
// Nodes sharing one platform value (same name, same spec pointers) are
// profiled once. Workloads whose kind matches no node are skipped; the
// first profiling error is returned after attempting every pair, so
// one damaged profile does not block warming the rest (that pair is
// profiled lazily, surfacing the error on first use as before).
func (s *Scheduler) Prewarm(workloads []workload.Workload) error {
	var firstErr error
	seen := map[hw.Platform]bool{}
	for _, n := range s.Nodes {
		p := n.Platform
		if seen[p] {
			continue
		}
		seen[p] = true
		for _, w := range workloads {
			if w.Kind != p.Kind {
				continue
			}
			var err error
			if p.Kind == hw.KindCPU {
				_, err = profile.ProfileCPU(p, w)
			} else {
				_, err = profile.ProfileGPU(p, w)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
