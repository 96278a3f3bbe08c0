// Package docgen renders the reference documentation that must stay in
// sync with the code: WORKLOADS.md (the Table 3 benchmark models with
// their calibrated parameters) and PLATFORMS.md (the Table 2 platform
// specs). cmd/docgen writes them to the repository root, and the root
// package's golden test diffs them against the committed copies.
package docgen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/hw"
	"repro/internal/workload"
)

// Write renders both documents into dir as WORKLOADS.md and
// PLATFORMS.md.
func Write(dir string) error {
	for name, doc := range map[string]string{"WORKLOADS.md": Workloads(), "PLATFORMS.md": Platforms()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Workloads renders WORKLOADS.md: the Table 3 benchmark models with
// their calibrated parameters.
func Workloads() string {
	var b strings.Builder
	b.WriteString("# WORKLOADS — benchmark models (generated by cmd/docgen)\n\n")
	b.WriteString("Analytic models of the paper's Table 3 benchmarks. Each phase is\n")
	b.WriteString("characterized by its work per unit, access pattern, reachable\n")
	b.WriteString("efficiencies, compute/memory overlap exponent, and activity factors.\n")
	b.WriteString("See DESIGN.md for the calibration anchors and internal/workload for\n")
	b.WriteString("the model semantics. Regenerate with `go run ./cmd/docgen`.\n\n")
	for _, kind := range []hw.Kind{hw.KindCPU, hw.KindGPU} {
		if kind == hw.KindCPU {
			b.WriteString("## CPU benchmarks\n\n")
		} else {
			b.WriteString("## GPU benchmarks\n\n")
		}
		for _, w := range workload.AllWorkloads() {
			if w.Kind != kind {
				continue
			}
			fmt.Fprintf(&b, "### %s (%s)\n\n%s. Reported in %s; aggregate intensity %.3g ops/byte.\n\n",
				w.Name, w.Suite, w.Desc, w.PerfUnit, w.ComputeIntensity())
			b.WriteString("| phase | weight | ops/unit | bytes/unit | random | bw eff | compute eff | overlap | activity (busy/stalled) |\n")
			b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
			for _, p := range w.Phases {
				fmt.Fprintf(&b, "| %s | %.2f | %.3g | %.3g | %.2f | %.2f | %.2f | %.1f | %.2f / %.2f |\n",
					p.Name, p.Weight, p.OpsPerUnit, p.BytesPerUnit, p.RandomFrac,
					p.BandwidthEff, p.ComputeEff, p.Overlap, p.ActivityBase, p.StallActivity)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Platforms renders PLATFORMS.md: the Table 2 platform specs plus the
// H100-class additions.
func Platforms() string {
	var b strings.Builder
	b.WriteString("# PLATFORMS — hardware models (generated by cmd/docgen)\n\n")
	b.WriteString("The four experimental platforms of Table 2 as the simulator models\n")
	b.WriteString("them, plus the modern H100-class additions. Regenerate with\n")
	b.WriteString("`go run ./cmd/docgen`.\n\n")
	for _, p := range hw.AllPlatforms() {
		fmt.Fprintf(&b, "## %s (%s)\n\n", p.Name, p.Paper)
		switch p.Kind {
		case hw.KindCPU:
			c, d := p.CPU, p.DRAM
			fmt.Fprintf(&b, "**Processor**: %s — %d sockets x %d cores, DVFS %s..%s (step %s), "+
				"%.0f ops/cycle/core (peak %s).\n\n",
				c.Name, c.Sockets, c.CoresPerSocket, c.FMin, c.FNom, c.PStateStep,
				c.OpsPerCyclePerCore, c.PeakComputeRate(c.FNom, 1))
			fmt.Fprintf(&b, "Power: hardware floor %s (P_cpu_L4), uncore %s, dynamic %s at "+
				"nominal clock and full activity; %d T-state steps down to %.1f%% duty.\n\n",
				c.IdlePower, c.UncorePower, c.MaxDynPower, c.TStateSteps, c.MinDuty*100)
			fmt.Fprintf(&b, "**Memory**: %s — %d channels at %s (peak %s). Background %s "+
				"(P_mem_L3), %.2f/%.2f nJ per streamed/random byte, throttle floor %s of headroom.\n\n",
				d.Name, d.Channels, d.TransferRate, d.PeakBandwidth(), d.BackgroundPower,
				d.EnergyPerByteStream*1e9, d.EnergyPerByteRandom*1e9, d.MinThrottleHeadroom)
		case hw.KindGPU:
			g := p.GPU
			fmt.Fprintf(&b, "**Card**: %s — %d SMs x %d lanes, SM DVFS %s..%s (peak %s).\n\n",
				g.Name, g.SMs, g.LanesPerSM, g.SMClockMin, g.SMClockNom,
				g.PeakComputeRate(g.SMClockNom))
			fmt.Fprintf(&b, "Power: board idle %s, SM idle %s, SM dynamic %s at nominal; caps "+
				"settable %s..%s (default %s).\n\n",
				g.IdleBoard, g.SMIdlePower, g.SMMaxDynPower, g.MinCap, g.MaxCap, g.TDP)
			m := &g.Mem
			fmt.Fprintf(&b, "**Memory**: %s — clock %s..%s (nominal %s), %.0f B/clock "+
				"(peak %s at nominal); empirical power %s..%s across the clock range.\n\n",
				m.Name, m.ClockMin, m.ClockMax, m.ClockNom, m.BytesPerClock,
				m.PeakBandwidth(m.ClockNom), m.PowerMin, m.PowerMax)
		}
	}
	return b.String()
}
