package recoord

import (
	"testing"

	"repro/internal/catalogtest"
)

// TestMain fails the package's tests when one of them wrote through a
// shared catalog entry instead of a Clone.
func TestMain(m *testing.M) { catalogtest.Main(m) }
