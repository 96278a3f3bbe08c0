package hw

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/units"
)

// Kind distinguishes host (CPU+DRAM) platforms from discrete GPU
// platforms; the two have different capping mechanisms and therefore
// different allocation-scenario structure in the paper.
type Kind int

// Platform kinds.
const (
	KindCPU Kind = iota
	KindGPU
)

// String returns "cpu" or "gpu".
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindGPU:
		return "gpu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Platform is one of the experimental platforms of Table 2: a CPU node
// (processor package + DRAM, power-capped through RAPL) or a discrete GPU
// card (SMs + global memory, controlled through clock offsets and the
// board power governor).
type Platform struct {
	// Name is the short identifier used on the command line, e.g.
	// "ivybridge" or "titanxp".
	Name string
	// Paper is the platform's designation in Table 2 of the paper.
	Paper string
	// Kind selects the control model.
	Kind Kind
	// CPU and DRAM are set for KindCPU platforms.
	CPU  *CPUSpec
	DRAM *DRAMSpec
	// GPU is set for KindGPU platforms.
	GPU *GPUSpec
}

// Validate reports a descriptive error if the platform is incomplete or
// its component specs are inconsistent.
func (p *Platform) Validate() error {
	switch p.Kind {
	case KindCPU:
		if p.CPU == nil || p.DRAM == nil {
			return fmt.Errorf("platform %q: CPU platform missing CPU or DRAM spec", p.Name)
		}
		if err := p.CPU.Validate(); err != nil {
			return fmt.Errorf("platform %q: %w", p.Name, err)
		}
		if err := p.DRAM.Validate(); err != nil {
			return fmt.Errorf("platform %q: %w", p.Name, err)
		}
	case KindGPU:
		if p.GPU == nil {
			return fmt.Errorf("platform %q: GPU platform missing GPU spec", p.Name)
		}
		if err := p.GPU.Validate(); err != nil {
			return fmt.Errorf("platform %q: %w", p.Name, err)
		}
	default:
		return fmt.Errorf("platform %q: unknown kind %v", p.Name, p.Kind)
	}
	return nil
}

// IvyBridge returns CPU Platform I of Table 2: a dual-socket 10-core Xeon
// IvyBridge node (1.2–2.5 GHz per-processor DVFS) with 256 GB DDR3-1600.
// Calibration anchors from the paper: 48 W processor floor (P_cpu_L4),
// ~112 W CPU and ~116 W DRAM maximum demand for RandomAccess at 240 W,
// ~68 W DRAM background floor.
func IvyBridge() Platform {
	return Platform{
		Name:  "ivybridge",
		Paper: "CPU Platform I",
		Kind:  KindCPU,
		CPU: &CPUSpec{
			Name:               "2x Xeon 10-core IvyBridge",
			Sockets:            2,
			CoresPerSocket:     10,
			FMin:               1.2 * units.Gigahertz,
			FNom:               2.5 * units.Gigahertz,
			PStateStep:         100 * units.Megahertz,
			VMin:               0.78,
			VNom:               1.05,
			OpsPerCyclePerCore: 8, // AVX double-precision
			IdlePower:          48,
			UncorePower:        14,
			MaxDynPower:        118,
			TStateSteps:        8,
			MinDuty:            0.125,
		},
		DRAM: &DRAMSpec{
			Name:                "256 GB DDR3-1600",
			TotalGB:             256,
			Channels:            8, // 4 per socket
			TransferRate:        1600 * units.Megahertz,
			BytesPerTransfer:    8,
			BackgroundPower:     66,
			EnergyPerByteStream: 0.61e-9,
			EnergyPerByteRandom: 6.0e-9,
			MinThrottleHeadroom: 2,
		},
	}
}

// Haswell returns CPU Platform II of Table 2: a dual-socket 12-core Xeon
// Haswell node (1.2–2.3 GHz per-core DVFS) with 256 GB DDR4-2133. DDR4's
// lower background power (less frequent refresh) gives better performance
// at small budgets, while total power at maximum performance stays similar
// to the IvyBridge node, as the paper observes.
func Haswell() Platform {
	return Platform{
		Name:  "haswell",
		Paper: "CPU Platform II",
		Kind:  KindCPU,
		CPU: &CPUSpec{
			Name:               "2x Xeon 12-core Haswell",
			Sockets:            2,
			CoresPerSocket:     12,
			FMin:               1.2 * units.Gigahertz,
			FNom:               2.3 * units.Gigahertz,
			PStateStep:         100 * units.Megahertz,
			VMin:               0.75,
			VNom:               1.02,
			OpsPerCyclePerCore: 16, // AVX2 FMA double-precision
			IdlePower:          42,
			UncorePower:        16,
			MaxDynPower:        132,
			TStateSteps:        8,
			MinDuty:            0.125,
		},
		DRAM: &DRAMSpec{
			Name:                "256 GB DDR4-2133",
			TotalGB:             256,
			Channels:            8,
			TransferRate:        2133 * units.Megahertz,
			BytesPerTransfer:    8,
			BackgroundPower:     46,
			EnergyPerByteStream: 0.55e-9,
			EnergyPerByteRandom: 5.0e-9,
			MinThrottleHeadroom: 2,
		},
	}
}

// TitanXP returns GPU Platform I of Table 2: an Nvidia Titan XP (Pascal,
// 30 SMs, 12 GB GDDR5X). The board cap is settable from 125 W to 300 W
// with a 250 W default, matching the paper's description.
func TitanXP() Platform {
	return Platform{
		Name:  "titanxp",
		Paper: "GPU Platform I",
		Kind:  KindGPU,
		GPU: &GPUSpec{
			Name:               "Nvidia Titan XP",
			SMs:                30,
			LanesPerSM:         128,
			OpsPerCyclePerLane: 2, // FMA
			SMClockMin:         582 * units.Megahertz,
			SMClockNom:         1582 * units.Megahertz,
			SMClockStep:        12.5 * units.Megahertz,
			VMin:               0.65,
			VNom:               1.06,
			IdleBoard:          14,
			SMIdlePower:        12,
			SMMaxDynPower:      232,
			Mem: GPUMemSpec{
				Name:          "12 GB GDDR5X",
				ClockMin:      4000 * units.Megahertz,
				ClockNom:      5705 * units.Megahertz,
				ClockMax:      6000 * units.Megahertz,
				ClockStep:     100 * units.Megahertz,
				BytesPerClock: 96, // 384-bit bus
				PowerMin:      30,
				PowerMax:      78,
			},
			TDP:    250,
			MinCap: 125,
			MaxCap: 300,
		},
	}
}

// TitanV returns GPU Platform II of Table 2: an Nvidia Titan V (Volta,
// 80 SMs, 12 GB HBM2). HBM2 has a much smaller memory power range than
// GDDR5X, which the paper notes shrinks the allocation space and leaves
// most applications memory bounded.
func TitanV() Platform {
	return Platform{
		Name:  "titanv",
		Paper: "GPU Platform II",
		Kind:  KindGPU,
		GPU: &GPUSpec{
			Name:               "Nvidia Titan V",
			SMs:                80,
			LanesPerSM:         64,
			OpsPerCyclePerLane: 2,
			SMClockMin:         405 * units.Megahertz,
			SMClockNom:         1455 * units.Megahertz,
			SMClockStep:        12.5 * units.Megahertz,
			VMin:               0.62,
			VNom:               1.0,
			IdleBoard:          16,
			SMIdlePower:        14,
			SMMaxDynPower:      126,
			Mem: GPUMemSpec{
				Name:          "12 GB HBM2",
				ClockMin:      600 * units.Megahertz,
				ClockNom:      850 * units.Megahertz,
				ClockMax:      900 * units.Megahertz,
				ClockStep:     25 * units.Megahertz,
				BytesPerClock: 768, // 3072-bit bus
				PowerMin:      13,
				PowerMax:      27,
			},
			TDP:    250,
			MinCap: 100,
			MaxCap: 300,
		},
	}
}

// H100 returns a modern datacenter GPU platform: an Nvidia H100
// SXM-class card (Hopper, 132 SMs, HBM3). Unlike the Titan-era boards
// of Table 2, the settable cap range has a high floor — nvidia-smi
// rejects caps below 200 W — so coordination budgets can fall below the
// smallest enforceable cap, a regime the paper-era platforms never hit.
// HBM3's wide bus gives a large memory power range, so memory-clock
// coordination has real leverage again (unlike Titan V's narrow HBM2
// band).
func H100() Platform {
	return Platform{
		Name:  "h100",
		Paper: "Modern GPU Platform I (post-paper)",
		Kind:  KindGPU,
		GPU: &GPUSpec{
			Name:               "Nvidia H100 SXM",
			SMs:                132,
			LanesPerSM:         128,
			OpsPerCyclePerLane: 2, // FMA
			SMClockMin:         345 * units.Megahertz,
			SMClockNom:         1980 * units.Megahertz,
			SMClockStep:        15 * units.Megahertz,
			VMin:               0.62,
			VNom:               1.05,
			IdleBoard:          30,
			SMIdlePower:        40,
			SMMaxDynPower:      500,
			Mem: GPUMemSpec{
				Name: "80 GB HBM3",
				// HBM3 exposes a narrow clock range: unlike GDDR boards
				// the stacks never halve their clock, so even the 60 W
				// floor sustains ~70% of peak bandwidth. A lower floor
				// would starve compute-bound kernels whenever Algorithm 2
				// pins memory at P_mem_min.
				ClockMin:      1200 * units.Megahertz,
				ClockNom:      1600 * units.Megahertz,
				ClockMax:      1700 * units.Megahertz,
				ClockStep:     25 * units.Megahertz,
				BytesPerClock: 1280, // 5120-bit bus
				PowerMin:      60,
				PowerMax:      120,
			},
			TDP:    700,
			MinCap: 200,
			MaxCap: 700,
		},
	}
}

// H200 returns the H100's HBM3e refresh: the same GH100 compute die
// behind a wider, faster memory system (141 GB HBM3e). The cap range is
// unchanged, so the 200 W floor applies here too.
func H200() Platform {
	return Platform{
		Name:  "h200",
		Paper: "Modern GPU Platform II (post-paper)",
		Kind:  KindGPU,
		GPU: &GPUSpec{
			Name:               "Nvidia H200 SXM",
			SMs:                132,
			LanesPerSM:         128,
			OpsPerCyclePerLane: 2,
			SMClockMin:         345 * units.Megahertz,
			SMClockNom:         1980 * units.Megahertz,
			SMClockStep:        15 * units.Megahertz,
			VMin:               0.62,
			VNom:               1.05,
			IdleBoard:          30,
			SMIdlePower:        40,
			SMMaxDynPower:      500,
			Mem: GPUMemSpec{
				Name: "141 GB HBM3e",
				// Same narrow HBM clock range as the H100's stacks.
				ClockMin:      1250 * units.Megahertz,
				ClockNom:      1650 * units.Megahertz,
				ClockMax:      1750 * units.Megahertz,
				ClockStep:     25 * units.Megahertz,
				BytesPerClock: 1536, // 6144-bit bus
				PowerMin:      70,
				PowerMax:      145,
			},
			TDP:    700,
			MinCap: 200,
			MaxCap: 700,
		},
	}
}

// Platforms returns all four experimental platforms of Table 2 in paper
// order.
func Platforms() []Platform {
	return []Platform{IvyBridge(), Haswell(), TitanXP(), TitanV()}
}

// Modern returns the post-paper platforms: H100-class cards whose cap
// floors and memory systems differ qualitatively from Table 2 hardware.
func Modern() []Platform {
	return []Platform{H100(), H200()}
}

// AllPlatforms returns every modeled platform: the four Table 2
// platforms followed by the modern additions. Lookup paths (CLI, wire,
// decision tables) use this superset; figure reproductions stay on
// Platforms() so the paper artifacts keep their exact platform set.
func AllPlatforms() []Platform {
	return append(Platforms(), Modern()...)
}

// catalog is AllPlatforms built once: its entries indexed by name,
// the names sorted for error messages, and every entry's DVFS ladder.
// Its entries are shared: every PlatformByName of one name returns the
// same spec pointers, and no code writes through them. Being frozen,
// an entry's ladder is built here, once, and PStateBins and
// SMClockBins hand it out to every actuator of the entry; any other
// spec builds its own.
var catalog = sync.OnceValue(func() *catalogTable {
	t := &catalogTable{byName: map[string]Platform{}}
	for _, p := range AllPlatforms() {
		t.byName[p.Name] = p
		t.names = append(t.names, p.Name)
		if p.CPU != nil {
			t.pstates = append(t.pstates, entryLadder[CPUSpec]{p.CPU, p.CPU.buildPStateBins()})
		}
		if p.GPU != nil {
			t.smClocks = append(t.smClocks, entryLadder[GPUSpec]{p.GPU, p.GPU.buildSMClockBins()})
		}
	}
	sort.Strings(t.names)
	return t
})

// catalogTable is what catalog builds.
type catalogTable struct {
	byName   map[string]Platform
	names    []string
	pstates  []entryLadder[CPUSpec]
	smClocks []entryLadder[GPUSpec]
}

// entryLadder is a catalog entry's spec and its ladder.
type entryLadder[S any] struct {
	spec *S
	bins []Bin
}

// entryBins returns spec's ladder when spec is a catalog entry, by
// pointer identity, else nil. A linear scan over the few entries: a
// map keyed by the pointer read about 10% slower on a bound CPU run.
func entryBins[S any](ladders []entryLadder[S], spec *S) []Bin {
	for _, l := range ladders {
		if l.spec == spec {
			return l.bins
		}
	}
	return nil
}

// PlatformByName looks up a platform by its short name. It returns the
// shared catalog entry without copying: its CPU, DRAM and GPU specs are
// the catalog's own, read-only for every caller. A caller that needs a
// variant writes to a Clone. The error lists the valid names.
func PlatformByName(name string) (Platform, error) {
	t := catalog()
	p, ok := t.byName[name]
	if !ok {
		return Platform{}, fmt.Errorf("unknown platform %q (valid: %v)", name, t.names)
	}
	return p, nil
}

// Clone returns p with freshly allocated copies of its component specs,
// so writing to the clone's specs leaves p, and the catalog entry p may
// be, unchanged. The copies are not catalog entries, so their ladders
// follow what is written to them.
func (p Platform) Clone() Platform {
	if p.CPU != nil {
		c := *p.CPU
		p.CPU = &c
	}
	if p.DRAM != nil {
		d := *p.DRAM
		p.DRAM = &d
	}
	if p.GPU != nil {
		g := *p.GPU
		p.GPU = &g
	}
	return p
}
