// Package hwmodel holds the FITTED hardware model of the PACE method — the
// contents of an HMCL hardware object (paper Figure 7): the achieved
// floating-point operation cost of the serial kernel, the per-opcode cost
// table of the older PACE benchmark (kept for the ablation study), and the
// three Eq. 3 communication curves (send, receive, ping-pong).
//
// Everything in this package comes from observations — the simulated
// benchmarks in internal/bench — never from ground-truth platform
// parameters; this is the model side of the epistemic firewall described
// in DESIGN.md.
package hwmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"pacesweep/internal/clc"
	"pacesweep/internal/lru"
	"pacesweep/internal/platform"
)

// NetLevel is one fitted tier of a hierarchical interconnect model: the
// Eq. 3 curves the MPI benchmark produced with both probe processes pinned
// to that tier (same node, different nodes, different clusters).
type NetLevel struct {
	Send, Recv, PingPong platform.Piecewise
}

// Model is a complete fitted hardware characterisation.
type Model struct {
	Name string

	// MFLOPS is the achieved floating-point rate of the serial kernel from
	// profiling a dedicated 1x1 run (the paper's PAPI measurement). The
	// hardware layer's cost of one flop is 1/(MFLOPS*1e6) seconds.
	MFLOPS float64

	// OpcodeCosts is the old fine-grained PACE benchmark: seconds per clc
	// opcode from isolated micro-benchmarks. The paper shows this
	// mispredicts on superscalar processors (Section 4); it is retained to
	// reproduce that ablation.
	OpcodeCosts clc.CostTable

	// Send, Recv and PingPong are the fitted Eq. 3 curves in microseconds
	// (the mpi section of Figure 7). On a hierarchical model they hold the
	// intra-node (level 0) fits — what a naive single-placement benchmark
	// would have measured — and point-to-point pricing instead goes through
	// Levels.
	Send, Recv, PingPong platform.Piecewise

	// Levels, when non-empty, holds the per-tier fitted curves of a
	// hierarchical interconnect, and Topology places ranks on it (the
	// benchmarker knows where it pinned its probe processes — machine
	// layout is observable configuration, not hidden truth). Empty Levels
	// means a flat model priced by Send/Recv/PingPong alone.
	Levels   []NetLevel
	Topology platform.Topology
}

// Validate reports an incomplete model.
func (m *Model) Validate() error {
	if m.MFLOPS <= 0 {
		return fmt.Errorf("hwmodel: non-positive achieved rate %v", m.MFLOPS)
	}
	if m.PingPong == (platform.Piecewise{}) {
		return fmt.Errorf("hwmodel: missing ping-pong curve")
	}
	if len(m.Levels) > 1 && m.Topology.CoresPerNode <= 1 {
		return fmt.Errorf("hwmodel: hierarchical model needs a topology with cores per node > 1")
	}
	for i, lv := range m.Levels {
		if lv.PingPong == (platform.Piecewise{}) {
			return fmt.Errorf("hwmodel: level %d missing ping-pong curve", i)
		}
	}
	return nil
}

// Hierarchical reports whether the model prices point-to-point costs per
// (src, dst) cost class.
func (m *Model) Hierarchical() bool { return len(m.Levels) > 1 }

// level returns the fitted curves of a cost class, clamped to the deepest
// fitted level; a flat model views its three curves as the single level.
func (m *Model) level(class int) NetLevel {
	if len(m.Levels) == 0 {
		return NetLevel{Send: m.Send, Recv: m.Recv, PingPong: m.PingPong}
	}
	if class >= len(m.Levels) {
		class = len(m.Levels) - 1
	}
	if class < 0 {
		class = 0
	}
	return m.Levels[class]
}

// Fingerprint is a stable 64-bit hash over every parameter that can change
// a prediction: the achieved rate, all fitted curves (per-level included)
// and the topology. Prediction memo keys and serving-layer cache
// identities fold it in, so models differing only in a deep level can
// never share an entry.
func (m *Model) Fingerprint() uint64 {
	h := lru.NewHasher()
	h.Float64(m.MFLOPS)
	hashCurve(&h, m.Send)
	hashCurve(&h, m.Recv)
	hashCurve(&h, m.PingPong)
	h.Int(len(m.Levels))
	for _, lv := range m.Levels {
		hashCurve(&h, lv.Send)
		hashCurve(&h, lv.Recv)
		hashCurve(&h, lv.PingPong)
	}
	h.Int(m.Topology.CoresPerNode)
	h.Int(m.Topology.NodesPerCluster)
	return h.Sum()
}

func hashCurve(h *lru.Hasher, p platform.Piecewise) {
	h.Int(p.A)
	h.Float64(p.B)
	h.Float64(p.C)
	h.Float64(p.D)
	h.Float64(p.E)
}

// SecondsPerFlop returns the hardware layer's cost of one floating-point
// operation under the new coarse benchmarking approach.
func (m *Model) SecondsPerFlop() float64 { return 1 / (m.MFLOPS * 1e6) }

// CostOf prices an operation vector under the coarse achieved-rate
// approach: all floating-point operations at the achieved rate, control
// opcodes (LFOR, IFBR) free — the paper's stated assumption that the
// achieved rate is "an overall estimate of the processor hardware" that
// already folds in branch and loop costs.
func (m *Model) CostOf(v clc.Vector) float64 {
	return v.Flops() * m.SecondsPerFlop()
}

// OpcodeCostOf prices an operation vector under the old per-opcode
// summation, including control opcodes. This is the method the paper
// retired for commodity processors.
func (m *Model) OpcodeCostOf(v clc.Vector) float64 {
	return v.Cost(m.OpcodeCosts)
}

// Net adapts the fitted communication curves to mp.NetworkModel — and, on
// a hierarchical model, to mp.ClassNetworkModel: the model's topology
// resolves each (src, dst) pair to the fitted curves of its tier. The
// model is deterministic (no jitter): PACE evaluation is analytic.
func (m *Model) Net() *FittedNet { return &FittedNet{m: m} }

// sizeMemo caches one priced (class, size) pair of one curve. Template
// evaluation prices millions of messages drawn from a handful of block
// shapes, so a single-entry memo hits almost always. The entry lives in
// place behind a sequence lock, so neither a hit nor a refill allocates
// and concurrent pricing under the goroutine backend stays race-free: a
// refill holds an odd sequence, and a reader that sees one, or sees the
// sequence move while it reads, prices the curve directly. The curves
// are pure functions of (class, size), so a skipped refill never changes
// a value.
type sizeMemo struct {
	seq     atomic.Uint64 // even: stable; odd: refill in progress; 0: empty
	class   atomic.Int64
	bytes   atomic.Int64
	seconds atomic.Uint64 // math.Float64bits
}

func (m *sizeMemo) price(class, bytes int, eval func(int, int) float64) float64 {
	s := m.seq.Load()
	if s != 0 && s&1 == 0 && m.class.Load() == int64(class) && m.bytes.Load() == int64(bytes) {
		sec := m.seconds.Load()
		if m.seq.Load() == s {
			return math.Float64frombits(sec)
		}
	}
	sec := eval(class, bytes)
	if s&1 == 0 && m.seq.CompareAndSwap(s, s+1) {
		m.class.Store(int64(class))
		m.bytes.Store(int64(bytes))
		m.seconds.Store(math.Float64bits(sec))
		m.seq.Store(s + 2)
	}
	return sec
}

// FittedNet prices messages from the fitted Eq. 3 curves. One-way transit
// is half the fitted ping-pong round trip, as in the paper's communication
// resource model.
type FittedNet struct {
	m                   *Model
	send, recv, transit sizeMemo
}

// CostsDeterministic implements mp.DeterministicCosts: the fitted curves
// are pure functions of (class, size) — PACE evaluation is analytic — so
// the mp runtime may skip RNG materialisation and memoize per size.
func (n *FittedNet) CostsDeterministic() bool { return true }

// NetClasses implements mp.ClassNetworkModel: a flat model is one class,
// so the runtime keeps its class-free fast paths.
func (n *FittedNet) NetClasses() int {
	if !n.m.Hierarchical() {
		return 1
	}
	return minI(len(n.m.Levels), n.m.Topology.Classes())
}

// ClassOf implements mp.ClassNetworkModel via the model's topology,
// clamped to the deepest fitted level.
func (n *FittedNet) ClassOf(src, dst int) int {
	c := n.m.Topology.ClassOf(src, dst)
	if nc := n.NetClasses(); c >= nc {
		c = nc - 1
	}
	return c
}

// SendOverheadClass implements mp.ClassNetworkModel.
func (n *FittedNet) SendOverheadClass(class, bytes int, _ *rand.Rand) float64 {
	return n.send.price(class, bytes, func(c, b int) float64 { return n.m.level(c).Send.Seconds(b) })
}

// RecvOverheadClass implements mp.ClassNetworkModel.
func (n *FittedNet) RecvOverheadClass(class, bytes int, _ *rand.Rand) float64 {
	return n.recv.price(class, bytes, func(c, b int) float64 { return n.m.level(c).Recv.Seconds(b) })
}

// TransitClass implements mp.ClassNetworkModel.
func (n *FittedNet) TransitClass(class, bytes int, _ *rand.Rand) float64 {
	return n.transit.price(class, bytes, func(c, b int) float64 { return n.m.level(c).PingPong.Seconds(b) / 2 })
}

// SendOverhead implements mp.NetworkModel, pricing class 0 (the runtime
// goes through the class methods on hierarchical models).
func (n *FittedNet) SendOverhead(bytes int, rng *rand.Rand) float64 {
	return n.SendOverheadClass(0, bytes, rng)
}

// RecvOverhead implements mp.NetworkModel.
func (n *FittedNet) RecvOverhead(bytes int, rng *rand.Rand) float64 {
	return n.RecvOverheadClass(0, bytes, rng)
}

// Transit implements mp.NetworkModel.
func (n *FittedNet) Transit(bytes int, rng *rand.Rand) float64 {
	return n.TransitClass(0, bytes, rng)
}

// ReduceCost implements mp.NetworkModel: a binomial-tree estimate from the
// fitted small-message latency, the same functional form the simulator's
// truth uses (both sides model MPI_Allreduce as a log-tree). A
// hierarchical model reduces within each tier before crossing the next,
// each tier's hops priced by its own fitted ping-pong curve — mirroring
// platform.TruthNet's hierarchical tree.
func (n *FittedNet) ReduceCost(p, bytes int, _ *rand.Rand) float64 {
	if p <= 1 {
		return 0
	}
	if !n.m.Hierarchical() {
		hops := math.Ceil(math.Log2(float64(p)))
		return hops * n.m.PingPong.Seconds(bytes+16) / 2
	}
	total := 0.0
	for l, hops := range n.m.Topology.ReduceHops(p, len(n.m.Levels)) {
		if hops > 0 {
			total += float64(hops) * n.m.level(l).PingPong.Seconds(bytes+16) / 2
		}
	}
	return total
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
