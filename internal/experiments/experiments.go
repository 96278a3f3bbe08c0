// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a named runner that regenerates the
// corresponding data — the same rows and series the paper reports — and
// checks the paper's headline claims against the simulated results,
// recording each check as a finding.
//
// The experiment index in DESIGN.md maps each runner to the paper
// artifact it reproduces; EXPERIMENTS.md records paper-vs-measured for
// each one.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/report"
	"repro/internal/svgplot"
)

// Finding is one checked claim: what the paper reports versus what the
// reproduction measured.
type Finding struct {
	// Claim restates the paper's assertion.
	Claim string
	// Measured is the reproduced value or observation.
	Measured string
	// Pass reports whether the reproduction supports the claim.
	Pass bool
}

// String renders "[ok|MISS] claim — measured".
func (f Finding) String() string {
	tag := "ok  "
	if !f.Pass {
		tag = "MISS"
	}
	return fmt.Sprintf("[%s] %s — %s", tag, f.Claim, f.Measured)
}

// Output is the result of one experiment.
type Output struct {
	// ID is the artifact identifier, e.g. "fig3" or "table1".
	ID string
	// Title describes the artifact.
	Title string
	// Tables holds the regenerated data.
	Tables []*report.Table
	// Charts holds pre-rendered text charts.
	Charts []string
	// Figures holds SVG charts regenerating the paper's plots; the
	// experiments runner writes them next to the text artifacts.
	Figures []svgplot.Chart
	// Findings holds the checked claims.
	Findings []Finding
}

// Passed reports whether every finding passed.
func (o *Output) Passed() bool {
	for _, f := range o.Findings {
		if !f.Pass {
			return false
		}
	}
	return true
}

// Render prints the full experiment output as text.
func (o *Output) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", o.ID, o.Title)
	for _, t := range o.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, c := range o.Charts {
		b.WriteString(c)
		b.WriteByte('\n')
	}
	if len(o.Findings) > 0 {
		b.WriteString("Findings:\n")
		for _, f := range o.Findings {
			b.WriteString("  " + f.String() + "\n")
		}
	}
	return b.String()
}

// WriteFiles writes the artifact's files into dir: <id>.txt (the
// rendered text), <id>.csv (every table, each under a "# title" line)
// and one SVG per figure (<id>.svg, or <id>_<n>.svg when there are
// several). These are the files committed under results/.
func (o *Output) WriteFiles(dir string) error {
	if err := os.WriteFile(filepath.Join(dir, o.ID+".txt"), []byte(o.Render()), 0o644); err != nil {
		return err
	}
	var csv strings.Builder
	for _, t := range o.Tables {
		csv.WriteString("# " + t.Title + "\n" + t.CSV() + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, o.ID+".csv"), []byte(csv.String()), 0o644); err != nil {
		return err
	}
	for i := range o.Figures {
		name := o.ID + ".svg"
		if len(o.Figures) > 1 {
			name = fmt.Sprintf("%s_%d.svg", o.ID, i+1)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(o.Figures[i].SVG()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Runner regenerates one paper artifact.
type Runner struct {
	ID    string
	Title string
	Run   func() (Output, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{ID: "fig1", Title: "STREAM under power bounds: perf vs budget and vs allocation (CPU and GPU)", Run: Fig1},
		{ID: "fig2", Title: "Upper performance bound perf_max vs total budget (DGEMM, RandomAccess; IvyBridge, Haswell)", Run: Fig2},
		{ID: "fig3", Title: "Categorization of power allocation scenarios (SRA at 240 W on IvyBridge)", Run: Fig3},
		{ID: "fig4", Title: "Scenario patterns across total budgets (SRA, EP-DGEMM on IvyBridge)", Run: Fig4},
		{ID: "fig5", Title: "Balanced compute and memory access at 208 W (DGEMM, STREAM on IvyBridge)", Run: Fig5},
		{ID: "table1", Title: "Optimal allocation and critical component vs power budget", Run: Table1},
		{ID: "table2", Title: "CPU and GPU platforms used in experiments", Run: Table2},
		{ID: "table3", Title: "Benchmarks used in this study", Run: Table3},
		{ID: "fig6", Title: "GPU upper performance bound vs power cap (SGEMM, MiniFE on Titan XP and Titan V)", Run: Fig6},
		{ID: "fig7", Title: "GPU performance trends vs memory power allocation under various caps", Run: Fig7},
		{ID: "fig8", Title: "Performance profiles of all benchmarks on the experimental platforms", Run: Fig8},
		{ID: "fig9", Title: "COORD vs best vs baselines (CPU and GPU)", Run: Fig9},
		{ID: "recoord", Title: "Online re-coordination vs static COORD vs default governor (phased ML on H100-class)", Run: Recoord},
		{ID: "insights", Title: "The four research questions of Section 2.1, answered per benchmark", Run: Insights},
	}
}

// RunResult pairs a runner with its outcome.
type RunResult struct {
	Runner Runner
	Output Output
	Err    error
}

// RunAll regenerates the given artifacts concurrently on up to workers
// goroutines (0 or negative means GOMAXPROCS) and returns results in
// runner order regardless of completion order. The artifacts are
// independent of each other, and they share the process-wide evaluation
// engine, so points one figure simulates are memo hits for the next —
// running them together is strictly cheaper than running them apart.
func RunAll(runners []Runner, workers int) []RunResult {
	out := make([]RunResult, len(runners))
	if len(runners) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runners) {
		workers = len(runners)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runners) {
					return
				}
				r := runners[i]
				o, err := r.Run()
				out[i] = RunResult{Runner: r, Output: o, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// ByID returns the runner for an artifact ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, ids)
}
