// ML inference workloads: phased large-model serving, post-paper. A
// request is processed in two phases with opposite resource appetites —
// prefill (the prompt pass, large matrix-matrix work, compute bound)
// and decode (autoregressive token generation, one full weight sweep
// per token, bandwidth bound). The work unit is a token; the phase
// weights come from the sequence-length mix (prompt tokens vs generated
// tokens), which is what makes the class configurable: a chat service
// is decode heavy, batch summarization is prefill heavy.
//
// The phase contrast is the point: a static power split tuned for the
// aggregate leaves performance on the table in both phases, which is
// what internal/recoord's online re-coordination recovers.

package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hw"
)

// mlPhases returns the prefill/decode phase pair with the given work
// weights. Per-token costs model a dense ~70B-parameter model served in
// moderate batches: prefill amortizes weight traffic across the batch
// (ops/byte far above any modeled GPU's machine balance), decode streams
// the full weight set per token (ops/byte far below it).
func mlPhases(prefillW, decodeW float64) []Phase {
	return []Phase{
		{
			Name:          "prefill",
			Weight:        prefillW,
			OpsPerUnit:    4e9,
			BytesPerUnit:  2e7,
			RandomFrac:    0,
			BandwidthEff:  0.85,
			ComputeEff:    0.80,
			Overlap:       4,
			ActivityBase:  0.95,
			StallActivity: 0.45,
		},
		{
			Name:          "decode",
			Weight:        decodeW,
			OpsPerUnit:    4e9,
			BytesPerUnit:  1.4e9,
			RandomFrac:    0.05, // scattered KV-cache reads
			BandwidthEff:  0.80,
			ComputeEff:    0.60,
			Overlap:       4,
			ActivityBase:  0.42,
			StallActivity: 0.25,
		},
	}
}

// NewMLInference builds a phased ML inference workload from a sequence
// length mix: seqTokens prompt tokens are prefilled and outTokens are
// decoded per request, so the phase weights are the token shares. The
// weights are normalized to an exact sum (see NormalizeWeights).
func NewMLInference(name string, seqTokens, outTokens float64) (Workload, error) {
	if !(seqTokens > 0) || !(outTokens > 0) || seqTokens > 1e12 || outTokens > 1e12 {
		return Workload{}, fmt.Errorf("ml workload %q: token counts must be in (0, 1e12], got seq=%v out=%v",
			name, seqTokens, outTokens)
	}
	total := seqTokens + outTokens
	w := Workload{
		Name:            name,
		Suite:           "ML",
		Desc:            fmt.Sprintf("LLM serving, %g prompt + %g generated tokens per request", seqTokens, outTokens),
		Kind:            hw.KindGPU,
		PerfUnit:        "ktok/s",
		PerfPerUnitRate: 1e-3,
		Phases:          mlPhases(seqTokens/total, outTokens/total),
	}
	if err := NormalizeWeights(w.Phases); err != nil {
		return Workload{}, fmt.Errorf("ml workload %q: %w", name, err)
	}
	if err := w.Validate(); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// ParsePhaseSpec parses a phased ML workload description of the form
// "key=value,key=value". Two equivalent vocabularies are accepted:
//
//	seq=1024,out=512        sequence-length mix (prompt vs generated tokens)
//	prefill=2,decode=1      explicit phase weights (normalized)
//
// plus an optional name=<id> (default "llm"). The vocabularies cannot
// be mixed. Weights need not sum to 1 — they are normalized exactly.
func ParsePhaseSpec(spec string) (Workload, error) {
	name, named := "llm", false
	vals := map[string]float64{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Workload{}, fmt.Errorf("phase spec: malformed field %q (want key=value)", field)
		}
		if k == "name" {
			if named {
				return Workload{}, fmt.Errorf("phase spec: duplicate key %q", k)
			}
			name, named = v, true
			continue
		}
		switch k {
		case "seq", "out", "prefill", "decode":
		default:
			return Workload{}, fmt.Errorf("phase spec: unknown key %q (valid: seq, out, prefill, decode, name)", k)
		}
		if _, dup := vals[k]; dup {
			return Workload{}, fmt.Errorf("phase spec: duplicate key %q", k)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Workload{}, fmt.Errorf("phase spec: %s: %v", k, err)
		}
		vals[k] = f
	}
	_, hasSeq := vals["seq"]
	_, hasOut := vals["out"]
	_, hasPre := vals["prefill"]
	_, hasDec := vals["decode"]
	switch {
	case hasSeq || hasOut:
		if hasPre || hasDec {
			return Workload{}, fmt.Errorf("phase spec: cannot mix seq/out with prefill/decode weights")
		}
		if !hasSeq || !hasOut {
			return Workload{}, fmt.Errorf("phase spec: seq and out must both be given")
		}
		return NewMLInference(name, vals["seq"], vals["out"])
	case hasPre || hasDec:
		if !hasPre || !hasDec {
			return Workload{}, fmt.Errorf("phase spec: prefill and decode must both be given")
		}
		pre, dec := vals["prefill"], vals["decode"]
		if !(pre > 0) || !(dec > 0) || pre > 1e18 || dec > 1e18 {
			return Workload{}, fmt.Errorf("phase spec: weights must be positive finite, got prefill=%v decode=%v", pre, dec)
		}
		w := Workload{
			Name:            name,
			Suite:           "ML",
			Desc:            fmt.Sprintf("LLM serving, prefill:decode work ratio %g:%g", pre, dec),
			Kind:            hw.KindGPU,
			PerfUnit:        "ktok/s",
			PerfPerUnitRate: 1e-3,
			Phases:          mlPhases(pre, dec),
		}
		if err := NormalizeWeights(w.Phases); err != nil {
			return Workload{}, fmt.Errorf("phase spec: %w", err)
		}
		if err := w.Validate(); err != nil {
			return Workload{}, err
		}
		return w, nil
	default:
		return Workload{}, fmt.Errorf("phase spec %q: need seq=..,out=.. or prefill=..,decode=..", spec)
	}
}

// MLInference returns the stock phased serving mixes: a balanced
// interactive service, a decode-heavy chat mix, and a prefill-heavy
// batch-summarization mix.
func MLInference() []Workload {
	mustML := func(name string, seq, out float64) Workload {
		w, err := NewMLInference(name, seq, out)
		if err != nil {
			panic(err)
		}
		return w
	}
	return []Workload{
		mustML("llmserve", 1024, 512),
		mustML("llmchat", 256, 768),
		mustML("llmbatch", 3968, 128),
	}
}

// AllWorkloads returns every modeled workload: the Table 3 catalog
// followed by the ML inference additions. Lookup paths use this
// superset; figure reproductions stay on Catalog() so the paper
// artifacts keep their exact benchmark set.
func AllWorkloads() []Workload {
	return append(Catalog(), MLInference()...)
}

// PhasedWorkloads returns the modeled workloads with more than one
// phase and KindGPU — the set online re-coordination targets.
func PhasedWorkloads() []Workload {
	var out []Workload
	for _, w := range AllWorkloads() {
		if w.Kind == hw.KindGPU && len(w.Phases) > 1 {
			out = append(out, w)
		}
	}
	return out
}
