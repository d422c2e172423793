package workload

import "fmt"

// The catalog encodes the paper's benchmark applications as synthetic
// profiles. RPTI values for the six apps in Fig. 3(b) are the paper's own
// measurements (povray 0.48, ep 2.01, lu 15.38, mg 16.33, milc 21.68,
// libquantum 22.41); the remaining RPTIs are placed consistently with the
// paper's classification (soplex/mcf memory-intensive; bt/cg/sp NPB kernels
// between the FI bound of 3 and the T bound of 20, mcf above 20). Working
// sets, miss-rate curves and footprints are plausible published figures for
// the reference inputs; they set the scale, while orderings and class
// boundaries are what the reproduction depends on.

// catalog builders, one per application.

// Povray is SPEC CPU2006 453.povray: compute-bound ray tracer (LLC-FR).
func Povray() *Profile {
	return &Profile{
		Name: "povray", Suite: "SPEC", TrueClass: ClassFriendly,
		BaseCPI: 0.85,
		Phases: []Phase{
			{Fraction: 1, RPTI: 0.48, WorkingSetKB: 900, SoloMissRate: 0.02, MaxMissRate: 0.25},
		},
		FootprintMB: 40, TotalInstructions: 2.4e10, TouchesPerPage: 2.2,
		BlockProb: 0.08, BlockMicrosMean: 1500,
	}
}

// EP is NPB EP: embarrassingly parallel, negligible cache demand (LLC-FR).
func EP() *Profile {
	return &Profile{
		Name: "ep", Suite: "NPB", TrueClass: ClassFriendly,
		BaseCPI: 0.90,
		Phases: []Phase{
			{Fraction: 1, RPTI: 2.01, WorkingSetKB: 1800, SoloMissRate: 0.035, MaxMissRate: 0.30},
		},
		FootprintMB: 60, TotalInstructions: 2.4e10, TouchesPerPage: 2.0,
		BlockProb: 0.12, BlockMicrosMean: 1000,
	}
}

// LU is NPB LU: pipelined SSOR solver, cache-fitting (LLC-FI).
func LU() *Profile {
	return &Profile{
		Name: "lu", Suite: "NPB", TrueClass: ClassFitting,
		BaseCPI: 1.00,
		Phases: []Phase{
			{Fraction: 0.5, RPTI: 12.50, WorkingSetKB: 6500, SoloMissRate: 0.10, MaxMissRate: 0.58},
			{Fraction: 0.5, RPTI: 18.26, WorkingSetKB: 8500, SoloMissRate: 0.14, MaxMissRate: 0.66},
		},
		FootprintMB: 700, TotalInstructions: 2.2e10, TouchesPerPage: 5.1,
		BlockProb: 0.12, BlockMicrosMean: 1000, LatencyExposure: 0.75,
	}
}

// MG is NPB MG: multigrid kernel, cache-fitting (LLC-FI).
func MG() *Profile {
	return &Profile{
		Name: "mg", Suite: "NPB", TrueClass: ClassFitting,
		BaseCPI: 1.00,
		Phases: []Phase{
			{Fraction: 0.4, RPTI: 11.00, WorkingSetKB: 8000, SoloMissRate: 0.11, MaxMissRate: 0.60},
			{Fraction: 0.6, RPTI: 19.88, WorkingSetKB: 10500, SoloMissRate: 0.16, MaxMissRate: 0.70},
		},
		FootprintMB: 3400, TotalInstructions: 2.2e10, TouchesPerPage: 4.4,
		BlockProb: 0.12, BlockMicrosMean: 1000, LatencyExposure: 0.75,
	}
}

// BT is NPB BT: block tridiagonal solver (LLC-FI).
func BT() *Profile {
	return &Profile{
		Name: "bt", Suite: "NPB", TrueClass: ClassFitting,
		BaseCPI: 1.00,
		Phases: []Phase{
			{Fraction: 0.5, RPTI: 12.00, WorkingSetKB: 7800, SoloMissRate: 0.10, MaxMissRate: 0.56},
			{Fraction: 0.5, RPTI: 16.40, WorkingSetKB: 8600, SoloMissRate: 0.12, MaxMissRate: 0.60},
		},
		FootprintMB: 1200, TotalInstructions: 2.4e10, TouchesPerPage: 5.4,
		BlockProb: 0.12, BlockMicrosMean: 1000, LatencyExposure: 0.75,
	}
}

// CG is NPB CG: conjugate gradient, irregular accesses (LLC-FI, high end).
func CG() *Profile {
	return &Profile{
		Name: "cg", Suite: "NPB", TrueClass: ClassFitting,
		BaseCPI: 1.05,
		Phases: []Phase{
			{Fraction: 1, RPTI: 17.50, WorkingSetKB: 10200, SoloMissRate: 0.18, MaxMissRate: 0.70},
		},
		FootprintMB: 900, TotalInstructions: 2.0e10, TouchesPerPage: 5.1,
		BlockProb: 0.12, BlockMicrosMean: 1000, LatencyExposure: 0.85,
	}
}

// SP is NPB SP: scalar pentadiagonal solver (LLC-FI; the paper's best case,
// 45.2% improvement). Its second phase crosses the LLC-T bound, so the
// classifier's view of it changes over time.
func SP() *Profile {
	return &Profile{
		Name: "sp", Suite: "NPB", TrueClass: ClassFitting,
		BaseCPI: 1.00,
		Phases: []Phase{
			{Fraction: 0.4, RPTI: 14.00, WorkingSetKB: 9800, SoloMissRate: 0.14, MaxMissRate: 0.68},
			{Fraction: 0.6, RPTI: 20.50, WorkingSetKB: 11800, SoloMissRate: 0.18, MaxMissRate: 0.74},
		},
		FootprintMB: 1100, TotalInstructions: 2.2e10, TouchesPerPage: 5.2,
		BlockProb: 0.12, BlockMicrosMean: 1000, LatencyExposure: 0.80,
	}
}

// Soplex is SPEC CPU2006 450.soplex: LP solver (LLC-FI; lowest remote ratio
// in the paper's Fig. 1 at 77.41%).
func Soplex() *Profile {
	return &Profile{
		Name: "soplex", Suite: "SPEC", TrueClass: ClassFitting,
		BaseCPI: 0.95,
		Phases: []Phase{
			{Fraction: 0.6, RPTI: 16.00, WorkingSetKB: 9200, SoloMissRate: 0.18, MaxMissRate: 0.66},
			{Fraction: 0.4, RPTI: 23.00, WorkingSetKB: 11500, SoloMissRate: 0.24, MaxMissRate: 0.72},
		},
		FootprintMB: 900, TotalInstructions: 2.2e10, TouchesPerPage: 3.7,
		BlockProb: 0.08, BlockMicrosMean: 1500, LatencyExposure: 0.85,
	}
}

// MCF is SPEC CPU2006 429.mcf: pointer-chasing network simplex (LLC-T;
// footprint so large that a 5 GB VM only fits two instances, as in §V-B1).
func MCF() *Profile {
	return &Profile{
		Name: "mcf", Suite: "SPEC", TrueClass: ClassThrashing,
		BaseCPI: 1.10,
		Phases: []Phase{
			{Fraction: 0.5, RPTI: 18.50, WorkingSetKB: 18500, SoloMissRate: 0.40, MaxMissRate: 0.78},
			{Fraction: 0.5, RPTI: 23.30, WorkingSetKB: 22000, SoloMissRate: 0.44, MaxMissRate: 0.82},
		},
		FootprintMB: 1700, TotalInstructions: 1.8e10, TouchesPerPage: 4.8,
		BlockProb: 0.08, BlockMicrosMean: 1500, LatencyExposure: 0.95,
	}
}

// Milc is SPEC CPU2006 433.milc: lattice QCD, streaming (LLC-T).
func Milc() *Profile {
	return &Profile{
		Name: "milc", Suite: "SPEC", TrueClass: ClassThrashing,
		BaseCPI: 1.00,
		Phases: []Phase{
			{Fraction: 0.5, RPTI: 19.00, WorkingSetKB: 24000, SoloMissRate: 0.52, MaxMissRate: 0.84},
			{Fraction: 0.5, RPTI: 24.36, WorkingSetKB: 28000, SoloMissRate: 0.58, MaxMissRate: 0.86},
		},
		FootprintMB: 680, TotalInstructions: 1.8e10, TouchesPerPage: 5.2,
		BlockProb: 0.08, BlockMicrosMean: 1500, LatencyExposure: 0.70,
	}
}

// Libquantum is SPEC CPU2006 462.libquantum: streaming over a large qubit
// vector (LLC-T; highest RPTI in Fig. 3).
func Libquantum() *Profile {
	return &Profile{
		Name: "libquantum", Suite: "SPEC", TrueClass: ClassThrashing,
		BaseCPI: 0.95,
		Phases: []Phase{
			{Fraction: 1, RPTI: 22.41, WorkingSetKB: 32000, SoloMissRate: 0.60, MaxMissRate: 0.88},
		},
		FootprintMB: 100, TotalInstructions: 2.0e10, TouchesPerPage: 5.5,
		BlockProb: 0.08, BlockMicrosMean: 1500, LatencyExposure: 0.55,
	}
}

// Hungry is the paper's "hungry-loop" CPU burner run in VM3 to consume
// spare CPU (LLC-FR, effectively no memory traffic, never finishes within
// any experiment horizon).
func Hungry() *Profile {
	return &Profile{
		Name: "hungry", Suite: "micro", TrueClass: ClassFriendly,
		BaseCPI: 0.70,
		Phases: []Phase{
			{Fraction: 1, RPTI: 0.05, WorkingSetKB: 16, SoloMissRate: 0.001, MaxMissRate: 0.02},
		},
		FootprintMB: 10, TotalInstructions: 1e18, TouchesPerPage: 1.5,
	}
}

// GuestIdle models a guest-idle VCPU's housekeeping: the guest kernel on
// an otherwise idle VCPU wakes for short timer/RCU/daemon bursts every few
// milliseconds. These wakeups are what keep real run queues churning: each
// burst's end leaves a PCPU momentarily idle, and idle PCPUs steal — the
// exact event the paper's Algorithm 2 intercepts.
func GuestIdle() *Profile {
	return &Profile{
		Name: "guest-idle", Suite: "micro", TrueClass: ClassFriendly,
		BaseCPI: 1.0,
		Phases: []Phase{
			{Fraction: 1, RPTI: 0.8, WorkingSetKB: 256, SoloMissRate: 0.05, MaxMissRate: 0.30},
		},
		FootprintMB: 50, TotalInstructions: 1e18, TouchesPerPage: 1.5,
		BlockProb: 1.0, BlockMicrosMean: 8000, BurstMicros: 200,
	}
}

// Memcached builds the profile of one memcached worker thread serving the
// given number of concurrent memslap calls (paper Fig. 6 sweeps 16..112).
// Connection state and the hot object mix grow with concurrency, so the
// working set crosses the LLC capacity as concurrency rises — that is the
// mechanism behind the paper's LB/VCPU-P crossover: at low concurrency
// remote latency dominates (LB wins), at high concurrency LLC contention
// dominates (VCPU-P wins).
func Memcached(concurrency int) *Profile {
	if concurrency < 1 {
		concurrency = 1
	}
	c := float64(concurrency)
	return &Profile{
		Name: fmt.Sprintf("memcached-c%d", concurrency), Suite: "server",
		TrueClass: ClassFitting,
		BaseCPI:   0.95,
		Phases: []Phase{
			{
				Fraction:     1,
				RPTI:         10 + 0.08*c,
				WorkingSetKB: 2000 + 120*int64(concurrency),
				SoloMissRate: minF(0.10+0.0020*c, 0.45),
				MaxMissRate:  0.72,
			},
		},
		FootprintMB: 3000, Server: true, InstrPerRequest: 9.0e4,
		TouchesPerPage: 2.4, BlockProb: 0.5, BlockMicrosMean: 800, LatencyExposure: 0.80,
		PageDriftPerSecond: 0.12,
	}
}

// Redis builds the profile of one redis-server instance with the given
// number of parallel benchmark connections (paper Fig. 7 sweeps
// 2000..10000). The paper calls redis LLC-contention dominant, so the
// profile declares LLC-T, but its RPTI, an assumed formula rather than a
// Fig. 3 value, crosses Eq. 3's bound of 20 inside the sweep (19.2 at 2000
// connections, 22.0 at 10000): below about 4300 it classes as LLC-FI, and
// near the bound PMU noise flips its class from one period to the next.
func Redis(connections int) *Profile {
	if connections < 1 {
		connections = 1
	}
	c := float64(connections)
	return &Profile{
		Name: fmt.Sprintf("redis-p%d", connections), Suite: "server",
		TrueClass: ClassThrashing,
		BaseCPI:   0.90,
		Phases: []Phase{
			{
				Fraction:     1,
				RPTI:         18.5 + 0.00035*c,
				WorkingSetKB: 9000 + int64(1.1*c),
				SoloMissRate: minF(0.25+0.00001*c, 0.5),
				MaxMissRate:  0.78,
			},
		},
		FootprintMB: 2500, Server: true, InstrPerRequest: 6.0e4,
		TouchesPerPage: 2.5, BlockProb: 0.5, BlockMicrosMean: 800, LatencyExposure: 0.85,
		PageDriftPerSecond: 0.12,
	}
}

// RedisBenchmark models one redis-benchmark driver (paper Fig. 7's client
// VM): a CPU-bound request generator with a small cache footprint that
// runs to the horizon.
func RedisBenchmark() *Profile {
	return &Profile{
		Name: "redis-benchmark", Suite: "server", TrueClass: ClassFriendly,
		BaseCPI: 0.8,
		Phases: []Phase{
			{Fraction: 1, RPTI: 1.2, WorkingSetKB: 512, SoloMissRate: 0.02, MaxMissRate: 0.2},
		},
		FootprintMB: 64, TotalInstructions: 1e18, TouchesPerPage: 1.5,
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// builders maps each fixed (non-parameterised) profile's name to its
// constructor. Catalog, ByName and ByName's list of valid names all read
// it, so a lookup builds only the profile it returns.
var builders = map[string]func() *Profile{
	"povray": Povray, "ep": EP, "lu": LU, "mg": MG, "bt": BT, "cg": CG, "sp": SP,
	"soplex": Soplex, "mcf": MCF, "milc": Milc, "libquantum": Libquantum,
	"hungry": Hungry, "guest-idle": GuestIdle, "redis-benchmark": RedisBenchmark,
}

// Catalog returns all fixed profiles keyed by name.
func Catalog() map[string]*Profile {
	m := make(map[string]*Profile, len(builders))
	for name, build := range builders {
		m[name] = build()
	}
	return m
}

// ByName returns a fresh copy of the named fixed profile or an error
// listing valid names.
func ByName(name string) (*Profile, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown profile %q (have %v)", name, Names(Catalog()))
	}
	return build(), nil
}

// Fig3Apps returns the six applications of the paper's Fig. 3 calibration
// experiment, in the paper's order.
func Fig3Apps() []*Profile {
	return []*Profile{Povray(), EP(), LU(), MG(), Milc(), Libquantum()}
}
