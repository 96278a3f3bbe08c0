// Command experiments regenerates every table and figure of the paper's
// evaluation section and reports whether each checked claim holds in the
// reproduction. With -out it also writes per-artifact text and CSV files.
//
// Usage:
//
//	experiments                 # run everything, print to stdout
//	experiments fig3 fig9       # run selected artifacts
//	experiments -out results    # also write results/<id>.txt and .csv
//	experiments -parallel 1     # serial artifact regeneration
//	experiments -engine-stats   # report evaluation-engine counters
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/evalpool"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/wire"
)

func main() {
	outDir := flag.String("out", "", "directory to write per-artifact .txt and .csv files")
	parallel := flag.Int("parallel", 0, "artifact regenerations to run concurrently (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "evaluation workers per engine (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 0, "memo bound in simulated points (0 = default, negative disables)")
	engineStats := flag.Bool("engine-stats", false, "print evaluation-engine statistics to stderr when done")
	telem := flag.Bool("telemetry", false, "instrument the run and print a metrics snapshot to stderr when done")
	flag.Parse()

	evalpool.Configure(evalpool.Options{Workers: *workers, CacheSize: *cacheSize})
	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.New()
		wire.Instrument(reg)
		wire.InstrumentEngine(reg)
	}

	runners := experiments.All()
	if args := flag.Args(); len(args) > 0 {
		runners = runners[:0]
		for _, id := range args {
			r, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	failed := 0
	for _, rr := range experiments.RunAll(runners, *parallel) {
		if rr.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", rr.Runner.ID, rr.Err)
			failed++
			continue
		}
		out := rr.Output
		fmt.Print(out.Render())
		fmt.Println()
		if !out.Passed() {
			failed++
		}
		if *outDir != "" {
			if err := out.WriteFiles(*outDir); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}
	if *engineStats {
		fmt.Fprintf(os.Stderr, "engine: %s\n", evalpool.Default().Stats())
	}
	if reg != nil {
		wire.Instrument(nil)
		fmt.Fprint(os.Stderr, reg.Snapshot().Text())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d artifact(s) with failed claims\n", failed)
		os.Exit(1)
	}
}
