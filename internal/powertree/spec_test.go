package powertree

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestParseTreeSpecRoundTrip(t *testing.T) {
	cases := []string{
		"rackA=ivybridge/stream*2,haswell/dgemm^1;rackB@450=titanxp/sgemm^1,titanv/gpustream",
		"r0=ivybridge/stream",
		"r0@120.5=haswell/lu*3^2",
		"a=ivybridge/ep;b=haswell/cg^5;c@999=titanv/hpcg*2",
	}
	for _, in := range cases {
		sp, err := ParseTreeSpec(in)
		if err != nil {
			t.Fatalf("ParseTreeSpec(%q): %v", in, err)
		}
		canon := sp.String()
		back, err := ParseTreeSpec(canon)
		if err != nil {
			t.Fatalf("reparse of canonical %q: %v", canon, err)
		}
		if back.String() != canon {
			t.Errorf("canonical form unstable: %q -> %q", canon, back.String())
		}
		if len(back.Racks) != len(sp.Racks) {
			t.Fatalf("rack count changed on round-trip of %q", in)
		}
		for ri := range sp.Racks {
			a, b := sp.Racks[ri], back.Racks[ri]
			if a.ID != b.ID || a.Cap != b.Cap || len(a.Nodes) != len(b.Nodes) {
				t.Errorf("rack %d changed on round-trip of %q", ri, in)
			}
			for ni := range a.Nodes {
				if a.Nodes[ni].ID != b.Nodes[ni].ID ||
					a.Nodes[ni].Platform.Name != b.Nodes[ni].Platform.Name ||
					a.Nodes[ni].Workload.Name != b.Nodes[ni].Workload.Name ||
					a.Nodes[ni].Priority != b.Nodes[ni].Priority {
					t.Errorf("node %d/%d changed on round-trip of %q", ri, ni, in)
				}
			}
		}
	}
}

func TestParseTreeSpecExpansion(t *testing.T) {
	sp, err := ParseTreeSpec("r=ivybridge/stream*3^2,haswell/dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Leaves(); got != 4 {
		t.Fatalf("Leaves() = %d, want 4", got)
	}
	wantIDs := []string{"r/0", "r/1", "r/2", "r/3"}
	for i, id := range wantIDs {
		if sp.Racks[0].Nodes[i].ID != id {
			t.Errorf("node %d ID = %q, want %q", i, sp.Racks[0].Nodes[i].ID, id)
		}
	}
	for i := 0; i < 3; i++ {
		if sp.Racks[0].Nodes[i].Priority != 2 {
			t.Errorf("node %d priority = %d, want 2", i, sp.Racks[0].Nodes[i].Priority)
		}
	}
	if sp.Racks[0].Nodes[3].Priority != 0 {
		t.Errorf("node 3 priority = %d, want 0", sp.Racks[0].Nodes[3].Priority)
	}
}

func TestParseTreeSpecErrors(t *testing.T) {
	cases := []struct {
		in   string
		frag string
	}{
		{"", "empty"},
		{"r=", "empty node entry"},
		{"=ivybridge/stream", "bad id"},
		{"r=nosuch/stream", "platform"},
		{"r=ivybridge/nosuch", "workload"},
		{"r=ivybridge/sgemm", "workload"},     // kind mismatch: sgemm is GPU
		{"r=titanxp/stream", "workload"},      // kind mismatch: stream is CPU
		{"r@-5=ivybridge/stream", "cap"},      // negative cap
		{"r@x=ivybridge/stream", "cap"},       // malformed cap
		{"r=ivybridge/stream*0", "count"},     // zero count
		{"r=ivybridge/stream*9999", "count"},  // over maxNodeCount
		{"r=ivybridge/stream^-1", "priority"}, // negative priority
		{"r=ivybridge/stream;r=haswell/dgemm", "duplicate"},
		{"r=ivybridge/stream^x", "priority"}, // malformed priority
		{"r=ivybridge", "platform/workload"}, // missing slash
	}
	for _, c := range cases {
		_, err := ParseTreeSpec(c.in)
		if err == nil {
			t.Errorf("ParseTreeSpec(%q): want error containing %q, got nil", c.in, c.frag)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), c.frag) {
			t.Errorf("ParseTreeSpec(%q) = %v, want error containing %q", c.in, err, c.frag)
		}
	}
}

func TestValidateRejectsDuplicateNodeIDs(t *testing.T) {
	sp, err := ParseTreeSpec("a=ivybridge/stream;b=haswell/dgemm")
	if err != nil {
		t.Fatal(err)
	}
	sp.Racks[1].Nodes[0].ID = sp.Racks[0].Nodes[0].ID
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate node") {
		t.Fatalf("Validate() = %v, want duplicate node error", err)
	}
}

func TestQuantaHelpers(t *testing.T) {
	// 0.25 W quanta are dyadic: conversions must be exact.
	for _, q := range []int64{0, 1, 3, 4, 1000, 831} {
		if got := toQuanta(watts(q)); got != q {
			t.Errorf("toQuanta(watts(%d)) = %d", q, got)
		}
		if got := ceilQuanta(watts(q)); got != q {
			t.Errorf("ceilQuanta(watts(%d)) = %d", q, got)
		}
	}
	if got := toQuanta(units.Power(3.1)); got != 12 {
		t.Errorf("toQuanta(3.1W) = %d, want 12 (floor)", got)
	}
	if got := ceilQuanta(units.Power(3.1)); got != 13 {
		t.Errorf("ceilQuanta(3.1W) = %d, want 13 (ceil)", got)
	}
}
