package clc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorAlgebra(t *testing.T) {
	a := Vector{MFDG: 2, AFDG: 3}
	b := Vector{AFDG: 1, DFDG: 4}
	sum := a.Add(b)
	if sum[MFDG] != 2 || sum[AFDG] != 4 || sum[DFDG] != 4 {
		t.Errorf("Add = %v", sum)
	}
	// Inputs unchanged.
	if a[AFDG] != 3 || b[AFDG] != 1 {
		t.Error("Add mutated inputs")
	}
	sc := a.Scale(2.5)
	if sc[MFDG] != 5 || sc[AFDG] != 7.5 {
		t.Errorf("Scale = %v", sc)
	}
	if got := sum.Flops(); got != 10 {
		t.Errorf("Flops = %v", got)
	}
	if got := sum.Total(); got != 10 {
		t.Errorf("Total = %v", got)
	}
	withCtl := sum.Add(Vector{LFOR: 3, IFBR: 2})
	if got := withCtl.Flops(); got != 10 {
		t.Errorf("Flops must exclude control ops: %v", got)
	}
	if got := withCtl.Total(); got != 15 {
		t.Errorf("Total = %v", got)
	}
}

func TestVectorCost(t *testing.T) {
	v := Vector{MFDG: 10, AFDG: 20, LFOR: 100}
	table := CostTable{MFDG: 2e-9, AFDG: 1e-9}
	// LFOR missing from the table: negligible per the paper.
	want := 10*2e-9 + 20*1e-9
	if got := v.Cost(table); math.Abs(got-want) > 1e-18 {
		t.Errorf("Cost = %v, want %v", got, want)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{AFDG: 2, MFDG: 1}
	s := v.String()
	if !strings.Contains(s, "MFDG:1") || !strings.Contains(s, "AFDG:2") {
		t.Errorf("String = %q", s)
	}
	// Canonical order puts MFDG before AFDG.
	if strings.Index(s, "MFDG") > strings.Index(s, "AFDG") {
		t.Errorf("String not in canonical order: %q", s)
	}
}

func TestVectorEqual(t *testing.T) {
	a := Vector{MFDG: 1}
	b := Vector{MFDG: 1 + 1e-12}
	if !a.Equal(b, 1e-9) {
		t.Error("expected equal within tolerance")
	}
	if a.Equal(Vector{MFDG: 2}, 1e-9) {
		t.Error("expected unequal")
	}
	if a.Equal(Vector{MFDG: 1, AFDG: 5}, 1e-9) {
		t.Error("expected unequal on missing key")
	}
}

func TestExprEvaluation(t *testing.T) {
	p := Params{"it": 50, "jt": 40}
	e := BinOp('*', Var("it"), BinOp('+', Var("jt"), Const(10)))
	got, err := e.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50*50 {
		t.Errorf("eval = %v", got)
	}
	if _, err := Var("missing").Eval(p); err == nil {
		t.Error("expected unbound parameter error")
	}
	if _, err := BinOp('/', Const(1), Const(0)).Eval(p); err == nil {
		t.Error("expected division by zero error")
	}
	if s := e.String(); !strings.Contains(s, "it") {
		t.Errorf("String = %q", s)
	}
}

func TestFlowEvaluation(t *testing.T) {
	// loop it { loop jt { 2 MFDG + 1 AFDG } }
	body := Compute(Vector{MFDG: 2, AFDG: 1})
	flow := Loop(Var("it"), Loop(Var("jt"), body))
	v, err := flow.Eval(Params{"it": 3, "jt": 4})
	if err != nil {
		t.Fatal(err)
	}
	if v[MFDG] != 24 || v[AFDG] != 12 {
		t.Errorf("loop counts wrong: %v", v)
	}
	// LFOR: inner loop contributes (4+1) per outer trip, outer (3+1).
	if v[LFOR] != 3*(4+1)+(3+1) {
		t.Errorf("LFOR = %v", v[LFOR])
	}
}

func TestBranchFlow(t *testing.T) {
	flow := Branch(0.25, Compute(Vector{MFDG: 8}))
	v, err := flow.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v[MFDG] != 2 {
		t.Errorf("expected count = %v", v[MFDG])
	}
	if v[IFBR] != 1 {
		t.Errorf("IFBR = %v", v[IFBR])
	}
}

func TestSeqFlow(t *testing.T) {
	flow := Seq(
		Compute(Vector{MFDG: 1}),
		Compute(Vector{AFDG: 2}),
		Loop(Const(2), Compute(Vector{DFDG: 1})),
	)
	v, err := flow.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v[MFDG] != 1 || v[AFDG] != 2 || v[DFDG] != 2 {
		t.Errorf("seq = %v", v)
	}
}

func TestFlowErrors(t *testing.T) {
	if _, err := Loop(Var("n"), Compute(Vector{})).Eval(nil); err == nil {
		t.Error("expected unbound loop count error")
	}
	if _, err := Loop(Const(-1), Compute(Vector{})).Named("bad").Eval(nil); err == nil {
		t.Error("expected negative count error")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error should carry the flow name: %v", err)
	}
	if _, err := Seq(Loop(Var("n"))).Eval(nil); err == nil {
		t.Error("seq must propagate child errors")
	}
	if _, err := Branch(0.5, Loop(Var("n"))).Eval(nil); err == nil {
		t.Error("branch must propagate child errors")
	}
}

func TestFlowLinearityProperty(t *testing.T) {
	// Property: flop counts scale linearly with the loop bound.
	f := func(n uint8) bool {
		flow := Loop(Var("n"), Compute(Vector{MFDG: 3, AFDG: 2}))
		v1, err1 := flow.Eval(Params{"n": float64(n)})
		v2, err2 := flow.Eval(Params{"n": 2 * float64(n)})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(v2.Flops()-2*v1.Flops()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSweepKernelFlowMatchesKernelConstant(t *testing.T) {
	// Hand-built characterisation of the per-cell kernel: 37 flops per
	// (cell, angle) update. This mirrors the capp output and must agree
	// with the solver's documented FlopsPerCellAngle.
	perCell := Vector{
		// src moments, num, 2*psi, WDD outs, flux, currents, faces
		MFDG: 3 + 3 + 1 + 6 + 1 + 3 + 3,
		AFDG: 3 + 3 + 0 + 3 + 1 + 3 + 3,
		DFDG: 1,
	}
	if got := perCell.Flops(); got != 37 {
		t.Errorf("kernel characterisation = %v flops, want 37", got)
	}
}

// TestVectorCostDeterministic pins Cost and Total to one bit pattern over
// repeated identical calls. Summing a map in iteration order made the last
// bit depend on the order Go happened to pick; the canonical order (known
// opcodes as AllOps lists them, then unknown ones by name) removes that.
func TestVectorCostDeterministic(t *testing.T) {
	v := Vector{
		MFDG: 20.000000000000004, AFDG: 16.3, DFDG: 1.1, LFOR: 3.7,
		IFBR: 0.30000000000000004, CMLD: 41.9, CMST: 13.1,
		"XOPA": 7.77, "XOPB": 1e-3,
	}
	table := CostTable{
		MFDG: 1.3e-9, AFDG: 1.1e-9, DFDG: 9.7e-9, LFOR: 2.9e-10,
		IFBR: 3.1e-10, CMLD: 7.1e-10, CMST: 8.3e-10, "XOPA": 1.7e-9, "XOPB": 3.3e-7,
	}
	cost, total := math.Float64bits(v.Cost(table)), math.Float64bits(v.Total())
	for i := 0; i < 2000; i++ {
		if got := math.Float64bits(v.Cost(table)); got != cost {
			t.Fatalf("call %d: Cost bits %#x, want %#x", i, got, cost)
		}
		if got := math.Float64bits(v.Total()); got != total {
			t.Fatalf("call %d: Total bits %#x, want %#x", i, got, total)
		}
	}
	// The canonical order is the sequential sum over AllOps, then unknown
	// opcodes sorted by name.
	want := 0.0
	for _, op := range append(AllOps(), "XOPA", "XOPB") {
		want += v[op] * table[op]
	}
	if math.Float64bits(want) != cost {
		t.Fatalf("Cost = %v, want canonical-order sum %v", v.Cost(table), want)
	}
}
