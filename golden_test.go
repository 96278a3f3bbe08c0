package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/docgen"
	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite results/ and the generated docs from the code")

// TestArtifactsGolden regenerates every paper artifact (what
// `go run ./cmd/experiments -out results` writes) and both generated
// docs (what `go run ./cmd/docgen` writes) into a temporary directory
// and requires them to equal the committed copies byte for byte, with
// no committed results/ file left unproduced. A physics, caching or
// rendering change that moves any figure — even inside the claim
// tolerances the experiments check — fails here until the artifacts
// are regenerated with -update and the diff is reviewed.
func TestArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every artifact; skipped with -short")
	}
	results, docs := t.TempDir(), t.TempDir()
	for _, rr := range experiments.RunAll(experiments.All(), 0) {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.Runner.ID, rr.Err)
		}
		if err := rr.Output.WriteFiles(results); err != nil {
			t.Fatal(err)
		}
	}
	if err := docgen.Write(docs); err != nil {
		t.Fatal(err)
	}
	compareDir(t, results, "results", true)
	compareDir(t, docs, ".", false)
}

// compareDir checks every file generated into got against its
// committed copy in dir (rewriting it under -update). With exclusive,
// dir must hold no file the generator did not produce.
func compareDir(t *testing.T, got, dir string, exclusive bool) {
	t.Helper()
	ents, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	made := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		made[name] = true
		fresh, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: generated but not committed (%v); run go test -run TestArtifactsGolden -update .", path, err)
			continue
		}
		if !bytes.Equal(fresh, committed) {
			t.Errorf("%s: committed copy differs from the code's output at line %d; run go test -run TestArtifactsGolden -update . and review the diff",
				path, firstDiffLine(fresh, committed))
		}
	}
	if !exclusive {
		return
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, e := range ents {
		if !made[e.Name()] {
			stale = append(stale, e.Name())
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		if *update {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("%s: committed but no longer generated", filepath.Join(dir, name))
	}
}

// firstDiffLine returns the 1-based line of the first byte where a and
// b differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
