// Package platform holds ground-truth hardware descriptions for the
// simulated cluster systems the experiments run on. These are the
// reproduction's stand-ins for the paper's physical machines: an Intel
// Pentium III / Myrinet 2000 cluster, an AMD Opteron / Gigabit Ethernet
// cluster, an SGI Altix Itanium2 SMP, and the hypothetical Opteron /
// Myrinet 2000 system of the paper's speculative study (Section 6).
//
// Epistemic firewall: ONLY the cluster simulator (the timed mp transport
// driven by this package) may read truth parameters. The PACE model side
// (internal/pace, internal/hwmodel) sees nothing but parameters fitted from
// simulated benchmarks by internal/bench, exactly as the paper's model only
// sees PAPI profiles and MPI benchmark curves. The Truth knobs below encode
// real-machine effects outside the model's knowledge (cache-residency
// differences between the profiled and production runs, SMP/NUMA memory
// contention, OS noise, network jitter); they are what produces the paper's
// characteristic 0-10% prediction errors.
package platform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Piecewise is the paper's Eq. 3 communication curve: the transfer time of a
// message of x bytes is B + C*x for x <= A and D + E*x for x >= A, with all
// times in microseconds. It describes both ground-truth interconnects here
// and fitted model curves in internal/hwmodel. The JSON form is the wire
// representation of custom platform specs (see Spec).
type Piecewise struct {
	A int     `json:"a"` // breakpoint in bytes
	B float64 `json:"b"` // intercept (us) below A
	C float64 `json:"c"` // slope (us/byte) below A
	D float64 `json:"d"` // intercept (us) above A
	E float64 `json:"e"` // slope (us/byte) above A
}

// Validate is the curve invariant every Eq. 3 curve in the system must
// satisfy — predefined, fitted and API-submitted alike: finite
// coefficients, a non-negative breakpoint and intercept, non-negative
// slopes, and no downward jump across the breakpoint, which together make
// the curve monotone non-decreasing in message size.
func (p Piecewise) Validate() error {
	for name, v := range map[string]float64{"b": p.B, "c": p.C, "d": p.D, "e": p.E} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("coefficient %s is not finite: %v", name, v)
		}
	}
	if p.A < 0 {
		return fmt.Errorf("breakpoint a must be non-negative, got %d", p.A)
	}
	if p.B < 0 {
		return fmt.Errorf("intercept b must be non-negative, got %v", p.B)
	}
	if p.C < 0 || p.E < 0 {
		return fmt.Errorf("slopes must be non-negative (c=%v e=%v)", p.C, p.E)
	}
	// Monotonicity across the breakpoint: the second segment at x=A must
	// not undercut the first segment's value there (each segment is
	// monotone on its own once the slopes are non-negative).
	x := float64(p.A)
	if p.D+p.E*x < p.B+p.C*x-1e-9 {
		return fmt.Errorf("curve decreases across breakpoint %d: %v -> %v",
			p.A, p.B+p.C*x, p.D+p.E*x)
	}
	return nil
}

// Micros evaluates the curve at a message size in bytes.
func (p Piecewise) Micros(bytes int) float64 {
	x := float64(bytes)
	if bytes <= p.A {
		return p.B + p.C*x
	}
	return p.D + p.E*x
}

// Seconds is Micros converted to seconds.
func (p Piecewise) Seconds(bytes int) float64 { return p.Micros(bytes) * 1e-6 }

// Level is one tier of a hierarchical interconnect: the Eq. 3 curves that
// price messages between rank pairs whose closest shared enclosure is this
// tier (same node, same cluster, cross-cluster WAN).
type Level struct {
	Name     string    `json:"name,omitempty"`
	Send     Piecewise `json:"send"`
	Recv     Piecewise `json:"recv"`
	PingPong Piecewise `json:"pingpong"`
	Jitter   float64   `json:"jitter,omitempty"` // truth-only fractional jitter
}

// Interconnect is a ground-truth network: three Eq. 3 curves as produced by
// the paper's MPI benchmark (send, receive, ping-pong round trip), plus a
// truth-only jitter fraction modelling network load variation.
//
// When Levels is non-empty the interconnect is hierarchical: level 0 prices
// rank pairs on the same node, level 1 pairs on different nodes of the same
// cluster, and an optional level 2 pairs in different clusters (WAN). The
// flat Send/Recv/PingPong/Jitter fields are then ignored; which level a
// rank pair resolves to is the Topology's cost class (clamped to the last
// level). Collectives are priced as a tree that reduces within each tier
// before crossing the next (see Topology.ReduceHops).
type Interconnect struct {
	Name     string
	Send     Piecewise // MPI_Send time at the sender
	Recv     Piecewise // MPI_Recv completion time once the message is available
	PingPong Piecewise // round-trip time; one-way transit is half of this
	Jitter   float64   // truth-only: symmetric fractional jitter on comm costs
	Levels   []Level   // non-empty: hierarchical per-class curves (see above)
}

// Hierarchical reports whether the interconnect carries per-level curves.
func (ic Interconnect) Hierarchical() bool { return len(ic.Levels) > 0 }

// level returns the curves pricing a given cost class: the matching level
// of a hierarchical interconnect (clamped to the deepest defined level), or
// the flat curves viewed as a single level.
func (ic Interconnect) level(class int) Level {
	if len(ic.Levels) == 0 {
		return Level{Name: ic.Name, Send: ic.Send, Recv: ic.Recv, PingPong: ic.PingPong, Jitter: ic.Jitter}
	}
	if class >= len(ic.Levels) {
		class = len(ic.Levels) - 1
	}
	if class < 0 {
		class = 0
	}
	return ic.Levels[class]
}

// Topology locates ranks on a machine: consecutive runs of CoresPerNode
// ranks share a node, and consecutive runs of NodesPerCluster nodes share a
// cluster (NodesPerCluster == 0 means one cluster spans everything). It is
// the (src, dst) cost-class resolver of hierarchical interconnects; class
// values are 0 (same node), 1 (same cluster, different node) and 2
// (different cluster). ClassOf is symmetric by construction.
type Topology struct {
	CoresPerNode    int `json:"cores_per_node,omitempty"`
	NodesPerCluster int `json:"nodes_per_cluster,omitempty"`
}

// normalized substitutes the defaults (1 core per node, a single cluster).
func (t Topology) normalized() Topology {
	if t.CoresPerNode <= 0 {
		t.CoresPerNode = 1
	}
	return t
}

// ClassOf resolves a rank pair to its topological cost class.
func (t Topology) ClassOf(src, dst int) int {
	t = t.normalized()
	ns, nd := src/t.CoresPerNode, dst/t.CoresPerNode
	if ns == nd {
		return 0
	}
	if t.NodesPerCluster > 0 && ns/t.NodesPerCluster != nd/t.NodesPerCluster {
		return 2
	}
	return 1
}

// Classes returns how many distinct cost classes the topology can produce:
// 1 for a single shared node, 2 with multiple nodes, 3 with multiple
// clusters. The caller's world size is not known here, so this is the
// upper bound the topology's structure admits.
func (t Topology) Classes() int {
	t = t.normalized()
	if t.NodesPerCluster > 0 {
		return 3
	}
	return 2
}

// ReduceHops returns the per-level hop counts of a hierarchical reduction
// tree over p ranks: ranks reduce within their node (a log2 tree over at
// most CoresPerNode participants), node roots within their cluster, and
// cluster roots across the WAN. Level l contributes hops[l] one-way
// small-message hops priced by that level's curves. A flat topology (one
// level) degenerates to the plain ceil(log2 p) tree. Levels past the
// given depth hold zero hops; the fixed-size result keeps pricing a
// reduction allocation-free.
func (t Topology) ReduceHops(p, levels int) [MaxLevels]int {
	t = t.normalized()
	var hops [MaxLevels]int
	if p <= 1 || levels == 0 {
		return hops
	}
	logTree := func(n int) int {
		if n <= 1 {
			return 0
		}
		return int(math.Ceil(math.Log2(float64(n))))
	}
	if levels == 1 {
		hops[0] = logTree(p)
		return hops
	}
	// Level 0: within-node trees over min(p, CoresPerNode) participants.
	group := minI(p, t.CoresPerNode)
	hops[0] = logTree(group)
	nodes := (p + t.CoresPerNode - 1) / t.CoresPerNode
	if levels == 2 || t.NodesPerCluster <= 0 {
		hops[1] = logTree(nodes)
		return hops
	}
	// Level 1: node roots within their cluster; level 2: cluster roots.
	hops[1] = logTree(minI(nodes, t.NodesPerCluster))
	clusters := (nodes + t.NodesPerCluster - 1) / t.NodesPerCluster
	hops[2] = logTree(clusters)
	return hops
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RatePoint anchors the achieved floating-point rate curve at a working-set
// size (cells per processor). Rates between anchors are interpolated
// linearly in log10(cells); outside the range the nearest anchor holds.
type RatePoint struct {
	CellsPerProc int     `json:"cells_per_proc"`
	MFLOPS       float64 `json:"mflops"`
}

// Processor is a ground-truth CPU description.
type Processor struct {
	Name     string
	ClockGHz float64
	// Rates is the achieved flop rate of the SWEEP3D kernel versus working
	// set, ascending in CellsPerProc. This is what PAPI profiling observes.
	Rates []RatePoint
	// OpcodeCycles is what the OLD per-opcode PACE benchmark would measure
	// on this processor: isolated micro-benchmark cycles per clc operation.
	// Modern out-of-order cores overlap these in real code, which is exactly
	// the discrepancy the paper's Section 4 identifies (up to ~50% error on
	// the Opteron); kept for the ablation experiment.
	OpcodeCycles map[string]float64
}

// MFLOPSAt interpolates the achieved rate for a working set.
func (p Processor) MFLOPSAt(cellsPerProc int) float64 {
	if len(p.Rates) == 0 {
		return 0
	}
	if cellsPerProc <= p.Rates[0].CellsPerProc {
		return p.Rates[0].MFLOPS
	}
	last := p.Rates[len(p.Rates)-1]
	if cellsPerProc >= last.CellsPerProc {
		return last.MFLOPS
	}
	i := sort.Search(len(p.Rates), func(i int) bool {
		return p.Rates[i].CellsPerProc >= cellsPerProc
	})
	lo, hi := p.Rates[i-1], p.Rates[i]
	t := (math.Log10(float64(cellsPerProc)) - math.Log10(float64(lo.CellsPerProc))) /
		(math.Log10(float64(hi.CellsPerProc)) - math.Log10(float64(lo.CellsPerProc)))
	return lo.MFLOPS + t*(hi.MFLOPS-lo.MFLOPS)
}

// Truth holds machine effects that exist on the simulated hardware but are
// invisible to the analytic model (see package comment).
type Truth struct {
	// ParallelRateBias is the fractional change in achieved flop rate of
	// production parallel runs relative to the dedicated 1x1 profiling run
	// the model is calibrated from. Positive: the parallel run is faster
	// (e.g. hot boundary faces under blocked communication on the SMP
	// clusters); negative: slower (e.g. NUMA fabric contention on the
	// Altix). This is the dominant source of the validation tables' error
	// sign.
	ParallelRateBias float64
	// NoiseFrac is the symmetric fractional OS/daemon noise on compute.
	NoiseFrac float64
	// LoadFrac bounds the run-level background-load disturbance: each
	// production run is slowed (or occasionally sped up, when the
	// reference runs themselves carried load) by a factor drawn once per
	// run from [-0.3*LoadFrac, +LoadFrac]. This reproduces the paper's
	// run-to-run scatter attributed to "background processes, network
	// load and minor fluctuations" (Section 5).
	LoadFrac float64
}

// RunDisturbance draws the run-level load factor for one production run.
func (t Truth) RunDisturbance(rng *rand.Rand) float64 {
	if t.LoadFrac == 0 {
		return 0
	}
	return t.LoadFrac * (-0.3 + 1.3*rng.Float64())
}

// Platform is a complete ground-truth system description.
type Platform struct {
	Name         string
	Proc         Processor
	Net          Interconnect
	CoresPerNode int
	// NodesPerCluster groups nodes into clusters for the optional WAN
	// level of a hierarchical interconnect; 0 means a single cluster.
	NodesPerCluster int
	Truth           Truth
	// Description mirrors the paper's table captions.
	Description string
}

// Topology returns the platform's rank-placement topology (the (src, dst)
// cost-class resolver of hierarchical interconnects).
func (pl Platform) Topology() Topology {
	return Topology{CoresPerNode: pl.CoresPerNode, NodesPerCluster: pl.NodesPerCluster}.normalized()
}

// FlattenedAt returns a copy of the platform whose interconnect is the
// given level of its hierarchy viewed as a flat network — every rank pair
// priced by that level's curves regardless of placement. This is how the
// benchmarking pipeline "pins" its probe processes to one tier (same node,
// different nodes, different clusters) to fit each level's curves, and how
// tests build the flattened single-class equivalent of a hierarchical
// system. On a flat platform it returns the platform unchanged.
func (pl Platform) FlattenedAt(class int) Platform {
	if !pl.Net.Hierarchical() {
		return pl
	}
	lv := pl.Net.level(class)
	pl.Net = Interconnect{
		Name:     pl.Net.Name + "/" + lv.Name,
		Send:     lv.Send,
		Recv:     lv.Recv,
		PingPong: lv.PingPong,
		Jitter:   lv.Jitter,
	}
	return pl
}

// SecondsPerCellAngle returns the ground-truth compute cost of one
// (cell, angle) update given the kernel's flop count per update, the
// rank-local working set, and whether this is a production parallel run
// (parallel=true) or a dedicated profiling run.
func (pl Platform) SecondsPerCellAngle(flopsPerCellAngle float64, cellsPerProc int, parallel bool) float64 {
	rate := pl.Proc.MFLOPSAt(cellsPerProc) * 1e6
	if parallel {
		rate *= 1 + pl.Truth.ParallelRateBias
	}
	return flopsPerCellAngle / rate
}

// --- Adapters onto the mp runtime ---

// NetModel adapts the interconnect to mp.NetworkModel. If jitter is false
// the curves are used exactly (useful for model-equivalence tests). On a
// hierarchical interconnect the returned model also implements
// mp.ClassNetworkModel: the platform's Topology resolves each (src, dst)
// pair to a cost class priced by the matching level's curves.
func (pl Platform) NetModel(jitter bool) *TruthNet {
	return &TruthNet{ic: pl.Net, topo: pl.Topology(), jitter: jitter}
}

// TruthNet prices messages from ground-truth interconnect curves.
type TruthNet struct {
	ic     Interconnect
	topo   Topology
	jitter bool
}

// CostsDeterministic implements mp.DeterministicCosts: without jitter the
// truth curves are pure functions of (class, size), so the runtime may use
// its per-size memo fast path.
func (t *TruthNet) CostsDeterministic() bool {
	if !t.jitter {
		return true
	}
	if !t.ic.Hierarchical() {
		return t.ic.Jitter == 0
	}
	for _, lv := range t.ic.Levels {
		if lv.Jitter != 0 {
			return false
		}
	}
	return true
}

func (t *TruthNet) perturb(s, jitter float64, rng *rand.Rand) float64 {
	if !t.jitter || jitter == 0 {
		return s
	}
	return s * (1 + jitter*(2*rng.Float64()-1))
}

// NetClasses implements mp.ClassNetworkModel: the number of distinct cost
// classes point-to-point pricing can produce. A flat interconnect is a
// single class, so the runtime keeps its class-free fast path.
func (t *TruthNet) NetClasses() int {
	if !t.ic.Hierarchical() {
		return 1
	}
	return minI(len(t.ic.Levels), t.topo.Classes())
}

// ClassOf implements mp.ClassNetworkModel: the topological class of a rank
// pair, clamped to the interconnect's deepest level.
func (t *TruthNet) ClassOf(src, dst int) int {
	c := t.topo.ClassOf(src, dst)
	if n := t.NetClasses(); c >= n {
		c = n - 1
	}
	return c
}

// SendOverheadClass implements mp.ClassNetworkModel.
func (t *TruthNet) SendOverheadClass(class, bytes int, rng *rand.Rand) float64 {
	lv := t.ic.level(class)
	return t.perturb(lv.Send.Seconds(bytes), lv.Jitter, rng)
}

// RecvOverheadClass implements mp.ClassNetworkModel.
func (t *TruthNet) RecvOverheadClass(class, bytes int, rng *rand.Rand) float64 {
	lv := t.ic.level(class)
	return t.perturb(lv.Recv.Seconds(bytes), lv.Jitter, rng)
}

// TransitClass implements mp.ClassNetworkModel.
func (t *TruthNet) TransitClass(class, bytes int, rng *rand.Rand) float64 {
	lv := t.ic.level(class)
	return t.perturb(lv.PingPong.Seconds(bytes)/2, lv.Jitter, rng)
}

// SendOverhead implements mp.NetworkModel, pricing class 0 (hierarchical
// interconnects are priced per class by the runtime through the
// ClassNetworkModel methods; the size-only methods exist for class-unaware
// consumers such as the two-rank benchmark worlds).
func (t *TruthNet) SendOverhead(bytes int, rng *rand.Rand) float64 {
	return t.SendOverheadClass(0, bytes, rng)
}

// RecvOverhead implements mp.NetworkModel.
func (t *TruthNet) RecvOverhead(bytes int, rng *rand.Rand) float64 {
	return t.RecvOverheadClass(0, bytes, rng)
}

// Transit implements mp.NetworkModel: one-way transit is half the ping-pong
// round trip.
func (t *TruthNet) Transit(bytes int, rng *rand.Rand) float64 {
	return t.TransitClass(0, bytes, rng)
}

// ReduceCost implements mp.NetworkModel. On a flat interconnect it is a
// binomial tree of ceil(log2 p) one-way small-message hops; on a
// hierarchical one the tree reduces within each tier before crossing the
// next, each tier's hops priced by its own curves (Topology.reduceHops).
func (t *TruthNet) ReduceCost(p, bytes int, rng *rand.Rand) float64 {
	if p <= 1 {
		return 0
	}
	if !t.ic.Hierarchical() {
		hops := math.Ceil(math.Log2(float64(p)))
		per := t.ic.PingPong.Seconds(bytes+16) / 2
		return t.perturb(hops*per, t.ic.Jitter, rng)
	}
	total := 0.0
	for l, hops := range t.topo.ReduceHops(p, len(t.ic.Levels)) {
		if hops == 0 {
			continue
		}
		lv := t.ic.level(l)
		total += t.perturb(float64(hops)*lv.PingPong.Seconds(bytes+16)/2, lv.Jitter, rng)
	}
	return total
}

// Noise returns the platform's compute-noise model for mp, or nil when the
// platform is noiseless.
func (pl Platform) Noise() *TruthNoise {
	if pl.Truth.NoiseFrac == 0 {
		return nil
	}
	return &TruthNoise{frac: pl.Truth.NoiseFrac}
}

// TruthNoise applies symmetric fractional OS noise to compute charges.
type TruthNoise struct{ frac float64 }

// Perturb implements mp.ComputeNoise.
func (n *TruthNoise) Perturb(s float64, rng *rand.Rand) float64 {
	return s * (1 + n.frac*(2*rng.Float64()-1))
}

// --- The four systems of the paper ---

// PentiumIIIMyrinet is the Table 1 system: 64 nodes of 2-way 1.4 GHz
// Pentium III SMPs, Myrinet 2000, GNU C 2.96 -O1, x87; achieved rate
// ~110 MFLOPS at 50^3 cells per processor.
func PentiumIIIMyrinet() Platform {
	return Platform{
		Name: "PentiumIII-Myrinet",
		Description: "64-node 2-way Intel Pentium III 1.4GHz SMP cluster, " +
			"Myrinet 2000, gcc 2.96 -O1, x87",
		Proc: Processor{
			Name:     "Intel Pentium III 1.4GHz",
			ClockGHz: 1.4,
			Rates: []RatePoint{
				{2500, 117}, {25000, 113}, {125000, 110}, {1250000, 105},
			},
			// In-order x87 at -O1: the micro-benchmarked per-opcode costs
			// are close to the achieved per-flop cost (~12.7 cycles), so
			// the old opcode method is still roughly right on this
			// platform (the paper calls it "acceptable for processors
			// available at the time").
			OpcodeCycles: map[string]float64{
				"MFDG": 14.0, "AFDG": 12.5, "DFDG": 40, "IFBR": 2.0, "LFOR": 3.0,
			},
		},
		Net: Interconnect{
			Name:     "Myrinet 2000",
			Send:     Piecewise{A: 512, B: 6.0, C: 0.0080, D: 8.0, E: 0.0042},
			Recv:     Piecewise{A: 512, B: 7.0, C: 0.0080, D: 9.0, E: 0.0042},
			PingPong: Piecewise{A: 512, B: 26.0, C: 0.0200, D: 32.0, E: 0.0088},
			Jitter:   0.06,
		},
		CoresPerNode: 2,
		Truth:        Truth{ParallelRateBias: +0.050, NoiseFrac: 0.012, LoadFrac: 0.035},
	}
}

// OpteronGigE is the Table 2 system: 16 nodes of 2-way 2 GHz Opteron SMPs,
// Gigabit Ethernet, gcc 3.4.4 -O1 -mfpmath=387; ~350 MFLOPS at 50^3.
func OpteronGigE() Platform {
	return Platform{
		Name: "Opteron-GigE",
		Description: "16-node 2-way AMD Opteron 2GHz SMP cluster, " +
			"Gigabit Ethernet, gcc 3.4.4 -O1 -mfpmath=387",
		Proc:         opteronProcessor(),
		Net:          gigE(),
		CoresPerNode: 2,
		Truth:        Truth{ParallelRateBias: +0.062, NoiseFrac: 0.010, LoadFrac: 0.030},
	}
}

// AltixNUMAlink is the Table 3 system: a single 56-way SGI Altix node of
// 1.6 GHz Itanium 2 processors on NUMAlink 4, Intel C 8.1 -O1;
// ~225 MFLOPS at 50^3. The model under-predicts here (positive errors):
// NUMA fabric contention slows production runs relative to the dedicated
// profiling run.
func AltixNUMAlink() Platform {
	return Platform{
		Name: "Altix-NUMAlink4",
		Description: "SGI Altix 56-way Intel Itanium 2 1.6GHz shared-memory " +
			"SMP, NUMAlink 4, Intel C 8.1 -O1",
		Proc: Processor{
			Name:     "Intel Itanium 2 1.6GHz",
			ClockGHz: 1.6,
			Rates: []RatePoint{
				{2500, 238}, {25000, 230}, {125000, 225}, {1250000, 217},
			},
			OpcodeCycles: map[string]float64{
				"MFDG": 8.0, "AFDG": 7.0, "DFDG": 24, "IFBR": 1.6, "LFOR": 2.2,
			},
		},
		Net: Interconnect{
			Name: "SGI NUMAlink 4",
			Send: Piecewise{A: 2048, B: 1.2, C: 0.00080, D: 1.8, E: 0.00055},
			Recv: Piecewise{A: 2048, B: 1.4, C: 0.00080, D: 2.0, E: 0.00055},
			// D chosen so the curve stays monotone across the breakpoint
			// (D + E*A >= B + C*A), the invariant Piecewise.Validate now
			// enforces on every curve in the system.
			PingPong: Piecewise{A: 2048, B: 3.4, C: 0.00200, D: 5.1, E: 0.00120},
			Jitter:   0.03,
		},
		CoresPerNode: 56,
		Truth:        Truth{ParallelRateBias: -0.058, NoiseFrac: 0.008, LoadFrac: 0.020},
	}
}

// OpteronMyrinet is the hypothetical Section 6 system: the 2-way Opteron SMP
// architecture re-equipped with the Myrinet 2000 communication model, used
// for the 20-million and 1-billion cell speculative scaling studies at 340
// MFLOPS. Being hypothetical it carries no truth bias or noise: the paper
// only predicts on it, it never measures.
func OpteronMyrinet() Platform {
	p := PentiumIIIMyrinet() // borrow the Myrinet 2000 interconnect
	return Platform{
		Name: "Opteron-Myrinet2000",
		Description: "Hypothetical 2-way Opteron SMP cluster with a " +
			"Myrinet 2000 interconnect (Section 6 speculation)",
		Proc: Processor{
			Name:     "AMD Opteron 2GHz (speculative 340 MFLOPS)",
			ClockGHz: 2.0,
			Rates:    []RatePoint{{2500, 340}, {125000, 340}},
			OpcodeCycles: map[string]float64{
				"MFDG": 8.0, "AFDG": 7.0, "DFDG": 36, "IFBR": 2.2, "LFOR": 2.9,
			},
		},
		Net:          p.Net,
		CoresPerNode: 2,
		Truth:        Truth{},
	}
}

func opteronProcessor() Processor {
	return Processor{
		Name:     "AMD Opteron 2GHz",
		ClockGHz: 2.0,
		Rates: []RatePoint{
			{2500, 362}, {25000, 355}, {125000, 350}, {1250000, 338},
		},
		// Isolated micro-benchmark costs (load-op-store chains): the
		// out-of-order Opteron overlaps these heavily in real code
		// (achieved ~5.7 cycles per flop), which is why the old opcode
		// summation over-predicts runtime by ~50% (Section 4).
		OpcodeCycles: map[string]float64{
			"MFDG": 8.0, "AFDG": 7.0, "DFDG": 36, "IFBR": 2.2, "LFOR": 2.9,
		},
	}
}

func gigE() Interconnect {
	return Interconnect{
		Name:     "Gigabit Ethernet",
		Send:     Piecewise{A: 1024, B: 28.0, C: 0.0120, D: 38.0, E: 0.0090},
		Recv:     Piecewise{A: 1024, B: 33.0, C: 0.0120, D: 44.0, E: 0.0090},
		PingPong: Piecewise{A: 1024, B: 92.0, C: 0.0300, D: 112.0, E: 0.0185},
		Jitter:   0.10,
	}
}

// ByName returns a platform by name from the default registry: the four
// predefined systems plus any custom specs registered into it
// (DefaultRegistry().Register). It is no longer limited to the built-ins.
func ByName(name string) (Platform, error) {
	return DefaultRegistry().Platform(name)
}

// All returns every predefined platform.
func All() []Platform {
	return []Platform{
		PentiumIIIMyrinet(), OpteronGigE(), AltixNUMAlink(), OpteronMyrinet(),
	}
}

// Names lists the predefined platform names.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}
