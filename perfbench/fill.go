package main

import "fmt"

// fillSeconds is the --seconds of the shortened traced runs that lend a
// traced run the layers its own workload does not exercise.
const fillSeconds = 4

// fillOrder is the order fillLayers borrows in: exact-mix first, as it
// exercises the most layers, then fastpath for the table and codec
// layers, then simulate for the DES.
var fillOrder = []string{"exact-mix", "fastpath", "simulate"}

// fillLayers completes a traced run's per-layer metrics. A layer the
// workload does not exercise has no figure of its own, so it is copied
// from a shortened traced run (fillSeconds, the same seed) of the first
// other workload in fillOrder that measures it. The workload's own
// figures are never overwritten, the side line's filled_from names the
// workload every copied metric comes from, and the lending runs'
// operations and checks count toward the result.
func fillLayers(rep *report) error {
	filled := map[string]string{}
	for _, name := range fillOrder {
		if name == rep.o.workload || len(rep.values) == len(perLayer) {
			continue
		}
		o := rep.o
		o.workload, o.seconds = name, fillSeconds
		o.spans = fmt.Sprintf(".bench_build/spans/%s-fill-%s-seed%d.jsonl", rep.o.workload, name, o.seed)
		lend := newReport(o)
		err := workloads[name](lend)
		rep.count(int(lend.attempted), int(lend.failed))
		rep.failures = append(rep.failures, lend.failures...)[:min(maxFailures, len(rep.failures)+len(lend.failures))]
		for _, p := range lend.phases {
			p.Name = name + "/" + p.Name
			rep.phases = append(rep.phases, p)
		}
		if err != nil {
			return fmt.Errorf("traced %s run for the layers %s does not exercise: %w", name, rep.o.workload, err)
		}
		for k, v := range lend.values {
			if _, ok := rep.values[k]; !ok {
				rep.values[k] = v
				filled[k] = name
			}
		}
	}
	rep.info["filled_from"] = filled
	return nil
}
