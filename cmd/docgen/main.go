// Command docgen regenerates the reference documentation that must stay
// in sync with the code: WORKLOADS.md (the Table 3 benchmark models with
// their calibrated parameters) and PLATFORMS.md (the Table 2 platform
// specs). Run from the repository root after changing the catalogs:
//
//	go run ./cmd/docgen
package main

import (
	"fmt"
	"os"

	"repro/internal/docgen"
)

func main() {
	if err := docgen.Write("."); err != nil {
		fmt.Fprintln(os.Stderr, "docgen:", err)
		os.Exit(1)
	}
	fmt.Println("wrote WORKLOADS.md and PLATFORMS.md")
}
