package hwmodel

import (
	"math"
	"math/rand"
	"testing"

	"pacesweep/internal/clc"
	"pacesweep/internal/mp"
	"pacesweep/internal/platform"
)

func testModel() *Model {
	return &Model{
		Name:   "t",
		MFLOPS: 200,
		OpcodeCosts: clc.CostTable{
			clc.MFDG: 10e-9, clc.AFDG: 8e-9, clc.DFDG: 30e-9,
			clc.IFBR: 2e-9, clc.LFOR: 3e-9,
		},
		Send:     platform.Piecewise{A: 512, B: 10, C: 0.01, D: 12, E: 0.005},
		Recv:     platform.Piecewise{A: 512, B: 11, C: 0.01, D: 13, E: 0.005},
		PingPong: platform.Piecewise{A: 512, B: 40, C: 0.03, D: 48, E: 0.011},
	}
}

func TestValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatal(err)
	}
	m := testModel()
	m.MFLOPS = 0
	if err := m.Validate(); err == nil {
		t.Error("expected rate error")
	}
	m = testModel()
	m.PingPong = platform.Piecewise{}
	if err := m.Validate(); err == nil {
		t.Error("expected curve error")
	}
}

func TestCostSemantics(t *testing.T) {
	m := testModel()
	if got := m.SecondsPerFlop(); math.Abs(got-5e-9) > 1e-18 {
		t.Errorf("seconds per flop = %v", got)
	}
	v := clc.Vector{clc.MFDG: 10, clc.AFDG: 5, clc.DFDG: 1, clc.IFBR: 100, clc.LFOR: 50}
	// Coarse achieved-rate costing: flops only, control ops free.
	if got, want := m.CostOf(v), 16*5e-9; math.Abs(got-want) > 1e-18 {
		t.Errorf("CostOf = %v, want %v", got, want)
	}
	// Old opcode costing: everything priced from the table.
	want := 10*10e-9 + 5*8e-9 + 1*30e-9 + 100*2e-9 + 50*3e-9
	if got := m.OpcodeCostOf(v); math.Abs(got-want) > 1e-18 {
		t.Errorf("OpcodeCostOf = %v, want %v", got, want)
	}
}

func TestFittedNet(t *testing.T) {
	m := testModel()
	var n mp.NetworkModel = m.Net()
	rng := rand.New(rand.NewSource(1))
	if got, want := n.SendOverhead(1000, rng), m.Send.Seconds(1000); got != want {
		t.Errorf("send = %v, want %v", got, want)
	}
	if got, want := n.RecvOverhead(1000, rng), m.Recv.Seconds(1000); got != want {
		t.Errorf("recv = %v, want %v", got, want)
	}
	if got, want := n.Transit(1000, rng), m.PingPong.Seconds(1000)/2; got != want {
		t.Errorf("transit = %v, want %v", got, want)
	}
	// Deterministic: identical across calls.
	if n.SendOverhead(1000, rng) != n.SendOverhead(1000, rng) {
		t.Error("fitted net must be deterministic")
	}
	if got := n.ReduceCost(1, 8, rng); got != 0 {
		t.Errorf("reduce p=1 = %v", got)
	}
	r4, r16 := n.ReduceCost(4, 8, rng), n.ReduceCost(16, 8, rng)
	if math.Abs(r16/r4-2) > 1e-12 {
		t.Errorf("log-tree scaling: %v vs %v", r4, r16)
	}
}

// hierModel is a two-level fitted model: cheap intra-node curves, the flat
// test model's curves as the inter-node tier.
func hierModel() *Model {
	m := testModel()
	m.Topology = platform.Topology{CoresPerNode: 4}
	m.Levels = []NetLevel{
		{
			Send:     platform.Piecewise{A: 1024, B: 1, C: 0.001, D: 2, E: 0.0005},
			Recv:     platform.Piecewise{A: 1024, B: 1.1, C: 0.001, D: 2.2, E: 0.0005},
			PingPong: platform.Piecewise{A: 1024, B: 3, C: 0.002, D: 5, E: 0.001},
		},
		{Send: m.Send, Recv: m.Recv, PingPong: m.PingPong},
	}
	return m
}

func TestHierarchicalFittedNet(t *testing.T) {
	m := hierModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	n := m.Net()
	var _ mp.ClassNetworkModel = n
	if n.NetClasses() != 2 {
		t.Fatalf("NetClasses = %d, want 2", n.NetClasses())
	}
	if n.ClassOf(0, 3) != 0 || n.ClassOf(3, 4) != 1 {
		t.Fatalf("class resolution: %d %d", n.ClassOf(0, 3), n.ClassOf(3, 4))
	}
	for _, b := range []int{64, 12000} {
		intra := n.SendOverheadClass(0, b, nil)
		inter := n.SendOverheadClass(1, b, nil)
		if !(intra < inter) {
			t.Errorf("size %d: intra %v must undercut inter %v", b, intra, inter)
		}
	}
	// The (class, size) memo must return exact per-class values under
	// alternating classes (the wavefront's steady state).
	for i := 0; i < 3; i++ {
		if got, want := n.RecvOverheadClass(0, 1500, nil), m.Levels[0].Recv.Seconds(1500); got != want {
			t.Fatalf("memoised class-0 recv = %v, want %v", got, want)
		}
		if got, want := n.RecvOverheadClass(1, 1500, nil), m.Levels[1].Recv.Seconds(1500); got != want {
			t.Fatalf("memoised class-1 recv = %v, want %v", got, want)
		}
	}
	// Size-only methods price class 0.
	if n.SendOverhead(64, nil) != n.SendOverheadClass(0, 64, nil) {
		t.Error("size-only SendOverhead must price class 0")
	}
	// Hierarchical reduce: within-node trees plus cross-node hops; must
	// exceed a pure intra-node tree and depend on the deep level's curves.
	rHier := n.ReduceCost(16, 8, nil)
	flat0 := testModel()
	flat0.Send, flat0.Recv, flat0.PingPong = m.Levels[0].Send, m.Levels[0].Recv, m.Levels[0].PingPong
	if rFlat := flat0.Net().ReduceCost(16, 8, nil); !(rHier > rFlat) {
		t.Errorf("hierarchical reduce %v must exceed intra-only %v", rHier, rFlat)
	}
	if n.ReduceCost(1, 8, nil) != 0 {
		t.Error("single-rank reduce must be free")
	}
}

func TestModelFingerprint(t *testing.T) {
	if testModel().Fingerprint() != testModel().Fingerprint() {
		t.Fatal("identical models must share a fingerprint")
	}
	seen := map[uint64]string{testModel().Fingerprint(): "flat"}
	variants := map[string]func(*Model){
		"rate":     func(m *Model) { m.MFLOPS = 201 },
		"curve":    func(m *Model) { m.Send.B += 0.001 },
		"levels":   func(m *Model) { *m = *hierModel() },
		"topology": func(m *Model) { *m = *hierModel(); m.Topology.CoresPerNode = 8 },
		"deep-level": func(m *Model) {
			*m = *hierModel()
			m.Levels[1].PingPong.D += 0.01
		},
	}
	for name, mutate := range variants {
		m := testModel()
		mutate(m)
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestFittedNetPricingNoAllocs pins the in-place size memo: concurrent
// pricing under alternating (class, size) pairs — the goroutine backend's
// access pattern — returns exact curve values (run with -race for the
// data-race half), and once warm neither hits, refills nor a
// hierarchical reduce allocate.
func TestFittedNetPricingNoAllocs(t *testing.T) {
	m := hierModel()
	n := m.Net()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				cls, b := (i+g)%2, 64+(i%3)*1000
				if got, want := n.TransitClass(cls, b, nil), m.level(cls).PingPong.Seconds(b)/2; got != want {
					t.Errorf("transit(%d, %d) = %v, want %v", cls, b, got, want)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		n.SendOverheadClass(i%2, 64+i%3, nil)
		n.ReduceCost(64, 8, nil)
	})
	if allocs != 0 {
		t.Fatalf("pricing allocates %v/op, want 0", allocs)
	}
}
