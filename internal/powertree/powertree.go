// Package powertree carries the paper's cross-component coordination up
// the facility hierarchy: a budget tree (datacenter → rack → node →
// component) that divides one datacenter power bound fairly and
// performance-aware at every level.
//
// The division algorithm is water-filling in the FastCap style, driven
// by per-child marginal-performance curves derived from the existing
// coord/core models:
//
//   - every leaf (a node running one workload) gets a concave
//     piecewise-linear performance curve, sampled from COORD decisions
//     evaluated through the shared evalpool engine over the node's
//     productive envelope [threshold, max demand];
//   - an interior node's curve is the slope-ordered merge of its
//     children's segments (truncated at the rack cap), so dividing a
//     budget at the datacenter level and re-dividing each rack's share
//     among its nodes are one and the same greedy fill;
//   - the fill hands each marginal quantum of power to the child with
//     the highest marginal performance per watt, which is exactly
//     optimal for concave curves.
//
// All accounting is done in integer quanta of quantumWatts, so budget
// conservation at every interior node — children sum ≤ parent with the
// surplus accounted exactly — is an integer identity, not a
// floating-point approximation.
//
// Oversubscription is admission-controlled: the datacenter budget may
// be provisioned below the fleet's aggregate demand (Result reports the
// ratio), the fill never grants a leaf more than its measured demand
// (the excess is reclaimed for siblings), and when even the productive
// floors do not fit — a rack budget shock, an oversubscribed admission
// wave — leaves are shed in SLA-priority order, lowest priority first,
// keeping the shed set minimal (no shed leaf could be re-admitted).
package powertree

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// quantumWatts is the allocation granularity. Every budget, floor, and
// grant is rounded onto this grid; conservation checks compare integer
// quantum counts exactly.
const quantumWatts = 0.25

// maxLeaves bounds a tree's total node count, converting hostile specs
// into diagnostics instead of unbounded work.
const maxLeaves = 4096

// maxPriority bounds SLA priorities (higher = more protected).
const maxPriority = 1_000_000

// Node is one leaf of the tree: a compute node running one workload,
// with an SLA priority deciding who is shed first under pressure.
type Node struct {
	// ID names the node; unique across the whole tree.
	ID string
	// Platform is the node's hardware (CPU server or GPU card host).
	Platform hw.Platform
	// Workload is the benchmark model the node runs.
	Workload workload.Workload
	// Priority is the SLA priority: higher values are shed later. The
	// zero value is the lowest (best-effort) class.
	Priority int
}

// Rack is one interior node of the tree: a set of compute nodes behind
// an optional local power cap (busbar or PDU limit).
type Rack struct {
	// ID names the rack; unique across the tree.
	ID string
	// Cap is the rack-local power bound; 0 means uncapped (only the
	// datacenter budget constrains the rack).
	Cap units.Power
	// Nodes is the rack's machine list.
	Nodes []Node
}

// Spec is a full tree topology: the datacenter's racks.
type Spec struct {
	Racks []Rack
}

// Leaves counts the tree's nodes.
func (s *Spec) Leaves() int {
	n := 0
	for i := range s.Racks {
		n += len(s.Racks[i].Nodes)
	}
	return n
}

// idOK reports whether an identifier sticks to the spec-string-safe
// charset (letters, digits, '.', '_', '-', and '/' for generated node
// IDs).
func idOK(id string) bool {
	if id == "" {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-' || c == '/':
		default:
			return false
		}
	}
	return true
}

// Validate checks the topology: non-empty unique identifiers, known
// platforms and workloads with matching kinds, finite caps, bounded
// priorities and size.
func (s *Spec) Validate() error {
	if len(s.Racks) == 0 {
		return fmt.Errorf("powertree: spec has no racks")
	}
	leaves := s.Leaves()
	if leaves == 0 {
		return fmt.Errorf("powertree: spec has no nodes")
	} else if leaves > maxLeaves {
		return fmt.Errorf("powertree: %d nodes exceeds the %d-node cap", leaves, maxLeaves)
	}
	rackIDs := make(map[string]bool, len(s.Racks))
	nodeIDs := make(map[string]bool, leaves)
	knownWL := map[string]bool{} // workload names already looked up
	for ri := range s.Racks {
		r := &s.Racks[ri]
		if !idOK(r.ID) || strings.ContainsRune(r.ID, '/') {
			return fmt.Errorf("powertree: rack %d: bad ID %q (letters, digits, '.', '_', '-')", ri, r.ID)
		}
		if rackIDs[r.ID] {
			return fmt.Errorf("powertree: duplicate rack ID %q", r.ID)
		}
		rackIDs[r.ID] = true
		if math.IsNaN(r.Cap.Watts()) || math.IsInf(r.Cap.Watts(), 0) || r.Cap < 0 {
			return fmt.Errorf("powertree: rack %q: cap %v is not a non-negative finite power", r.ID, r.Cap)
		}
		if len(r.Nodes) == 0 {
			return fmt.Errorf("powertree: rack %q has no nodes", r.ID)
		}
		for ni := range r.Nodes {
			n := &r.Nodes[ni]
			if !idOK(n.ID) {
				return fmt.Errorf("powertree: rack %q node %d: bad ID %q", r.ID, ni, n.ID)
			}
			if nodeIDs[n.ID] {
				return fmt.Errorf("powertree: duplicate node ID %q", n.ID)
			}
			nodeIDs[n.ID] = true
			if err := n.Platform.Validate(); err != nil {
				return fmt.Errorf("powertree: node %q: %w", n.ID, err)
			}
			if !knownWL[n.Workload.Name] {
				if _, err := workload.ByName(n.Workload.Name); err != nil {
					return fmt.Errorf("powertree: node %q: %w", n.ID, err)
				}
				knownWL[n.Workload.Name] = true
			}
			if n.Workload.Kind != n.Platform.Kind {
				return fmt.Errorf("powertree: node %q: workload %q is a %s workload but platform %q is a %s platform",
					n.ID, n.Workload.Name, n.Workload.Kind, n.Platform.Name, n.Platform.Kind)
			}
			if n.Priority < 0 || n.Priority > maxPriority {
				return fmt.Errorf("powertree: node %q: priority %d outside [0, %d]", n.ID, n.Priority, maxPriority)
			}
		}
	}
	return nil
}

// toQuanta floors a power onto the quantum grid (a budget of b watts
// buys floor(b/quantum) whole quanta).
func toQuanta(p units.Power) int64 {
	return int64(math.Floor(p.Watts()/quantumWatts + 1e-9))
}

// ceilQuanta rounds a power up onto the quantum grid (a floor of f
// watts needs ceil(f/quantum) quanta to be met).
func ceilQuanta(p units.Power) int64 {
	return int64(math.Ceil(p.Watts()/quantumWatts - 1e-9))
}

// watts converts a quantum count back to power; exact, because the
// quantum is a dyadic fraction of a watt.
func watts(q int64) units.Power {
	return units.Power(float64(q) * quantumWatts)
}
