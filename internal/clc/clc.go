// Package clc implements PACE's C-language characterisation layer: operation
// vectors over the classic PACE opcode mnemonics, cost tables mapping
// opcodes to times, and symbolic control-flow descriptions ("cflow") whose
// operation counts depend on model parameters (loop bounds, branch
// probabilities).
//
// The mnemonics follow the original PACE benchmark naming used in the paper
// (Figure 5 and 7): MFDG is a double-precision floating multiply, AFDG an
// add/subtract, DFDG a divide, LFOR a loop start-up, IFBR a conditional
// branch check, CMLD/CMST memory load/store characterisations.
package clc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a PACE opcode mnemonic.
type Op string

// The opcode set used by the SWEEP3D characterisation.
const (
	MFDG Op = "MFDG" // floating-point multiply (double)
	AFDG Op = "AFDG" // floating-point add/subtract (double)
	DFDG Op = "DFDG" // floating-point divide (double)
	LFOR Op = "LFOR" // loop start-up / iteration overhead
	IFBR Op = "IFBR" // conditional branch check
	CMLD Op = "CMLD" // memory load characterisation
	CMST Op = "CMST" // memory store characterisation
)

// AllOps lists the known opcodes in canonical order.
func AllOps() []Op { return []Op{MFDG, AFDG, DFDG, LFOR, IFBR, CMLD, CMST} }

// Vector is a multiset of opcode counts. Counts are float64 because branch
// probabilities produce fractional expected counts.
type Vector map[Op]float64

// Add returns v + w without mutating either.
func (v Vector) Add(w Vector) Vector {
	out := make(Vector, len(v)+len(w))
	for k, x := range v {
		out[k] = x
	}
	for k, x := range w {
		out[k] += x
	}
	return out
}

// Scale returns v with every count multiplied by f.
func (v Vector) Scale(f float64) Vector {
	out := make(Vector, len(v))
	for k, x := range v {
		out[k] = x * f
	}
	return out
}

// Flops returns the floating-point operation count (MFDG + AFDG + DFDG),
// the quantity PAPI-style profiling observes.
func (v Vector) Flops() float64 { return v[MFDG] + v[AFDG] + v[DFDG] }

// Total returns the count across all opcodes, summed in canonical order.
func (v Vector) Total() float64 {
	s := 0.0
	for _, op := range AllOps() {
		if x, ok := v[op]; ok {
			s += x
		}
	}
	for _, op := range v.unknownOps() {
		s += v[op]
	}
	return s
}

// Cost prices the vector against a per-opcode cost table (seconds per
// operation). Opcodes missing from the table cost zero, matching the
// paper's treatment of LFOR/IFBR as negligible in the new coarse
// benchmarking approach. The sum runs in canonical order, so identical
// inputs always price to identical bits.
func (v Vector) Cost(table CostTable) float64 {
	s := 0.0
	for _, op := range AllOps() {
		if x, ok := v[op]; ok {
			s += x * table[op]
		}
	}
	for _, op := range v.unknownOps() {
		s += v[op] * table[op]
	}
	return s
}

// String renders the vector with opcodes in canonical order.
func (v Vector) String() string {
	var parts []string
	for _, op := range AllOps() {
		if x, ok := v[op]; ok && x != 0 {
			parts = append(parts, fmt.Sprintf("%s:%.6g", op, x))
		}
	}
	for _, op := range v.unknownOps() {
		if v[op] != 0 {
			parts = append(parts, fmt.Sprintf("%s:%.6g", op, v[op]))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// unknownOps returns v's opcodes outside AllOps, sorted by name — the
// tail of the canonical order. It is nil (and allocation-free) when v
// holds only known opcodes.
func (v Vector) unknownOps() []Op {
	known := 0
	for _, op := range AllOps() {
		if _, ok := v[op]; ok {
			known++
		}
	}
	if known == len(v) {
		return nil
	}
	var extra []Op
	for k := range v {
		if !isKnown(k) {
			extra = append(extra, k)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	return extra
}

func isKnown(op Op) bool {
	for _, o := range AllOps() {
		if o == op {
			return true
		}
	}
	return false
}

// Equal reports whether two vectors agree within tol on every opcode.
func (v Vector) Equal(w Vector, tol float64) bool {
	for _, k := range keysUnion(v, w) {
		if math.Abs(v[k]-w[k]) > tol {
			return false
		}
	}
	return true
}

func keysUnion(v, w Vector) []Op {
	seen := map[Op]bool{}
	var out []Op
	for k := range v {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range w {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// CostTable maps opcodes to seconds per operation (the HMCL clc section of
// Figure 7 stores microseconds; internal/hwmodel converts).
type CostTable map[Op]float64

// Params supplies values for the symbolic quantities in a Flow (loop bounds
// and other model variables).
type Params map[string]float64

// Flow is a symbolic control-flow characterisation: a tree whose leaves are
// operation vectors and whose interior nodes are loops (with a symbolic
// count) and branches (with a probability). Evaluating a Flow against
// Params yields the expected operation Vector, mirroring the way PACE
// accumulates clc instructions "depending on the number of loop counts and
// branch probabilities" (Section 4.1).
type Flow struct {
	kind     flowKind
	ops      Vector  // leaf
	children []*Flow // seq, loop, branch then-bodies
	elseKids []*Flow // branch else-bodies
	count    Expr    // loop trip count
	prob     float64 // branch probability
	name     string  // optional label for diagnostics
}

type flowKind int

const (
	leafFlow flowKind = iota
	seqFlow
	loopFlow
	branchFlow
)

// Compute returns a leaf flow with fixed operation counts.
func Compute(ops Vector) *Flow { return &Flow{kind: leafFlow, ops: ops} }

// Seq returns the sequential composition of flows.
func Seq(children ...*Flow) *Flow { return &Flow{kind: seqFlow, children: children} }

// Loop returns a flow executing body count times; the loop's own start-up
// and per-iteration overhead contribute one LFOR per trip plus one for the
// start-up.
func Loop(count Expr, body ...*Flow) *Flow {
	return &Flow{kind: loopFlow, count: count, children: body}
}

// Branch returns a flow whose body executes with probability prob; each
// evaluation contributes one IFBR check.
func Branch(prob float64, body ...*Flow) *Flow {
	return &Flow{kind: branchFlow, prob: prob, children: body}
}

// IfElse returns a flow executing then with probability prob and els with
// probability 1-prob, charging a single IFBR per evaluation. Either branch
// may be nil.
func IfElse(prob float64, then, els *Flow) *Flow {
	f := &Flow{kind: branchFlow, prob: prob}
	if then != nil {
		f.children = []*Flow{then}
	}
	if els != nil {
		f.elseKids = []*Flow{els}
	}
	return f
}

// Named attaches a diagnostic label.
func (f *Flow) Named(name string) *Flow { f.name = name; return f }

// Eval expands the flow against parameter values into an expected operation
// vector.
func (f *Flow) Eval(p Params) (Vector, error) {
	switch f.kind {
	case leafFlow:
		return f.ops, nil
	case seqFlow:
		out := Vector{}
		for _, c := range f.children {
			v, err := c.Eval(p)
			if err != nil {
				return nil, err
			}
			out = out.Add(v)
		}
		return out, nil
	case loopFlow:
		n, err := f.count.Eval(p)
		if err != nil {
			return nil, flowErr(f, err)
		}
		if n < 0 {
			return nil, flowErr(f, fmt.Errorf("negative loop count %g", n))
		}
		body := Vector{}
		for _, c := range f.children {
			v, err := c.Eval(p)
			if err != nil {
				return nil, err
			}
			body = body.Add(v)
		}
		out := body.Scale(n)
		out[LFOR] += n + 1 // per-iteration overhead + start-up
		return out, nil
	case branchFlow:
		body := Vector{}
		for _, c := range f.children {
			v, err := c.Eval(p)
			if err != nil {
				return nil, err
			}
			body = body.Add(v)
		}
		out := body.Scale(f.prob)
		if len(f.elseKids) > 0 {
			els := Vector{}
			for _, c := range f.elseKids {
				v, err := c.Eval(p)
				if err != nil {
					return nil, err
				}
				els = els.Add(v)
			}
			out = out.Add(els.Scale(1 - f.prob))
		}
		out[IFBR]++
		return out, nil
	}
	return nil, fmt.Errorf("clc: unknown flow kind %d", f.kind)
}

func flowErr(f *Flow, err error) error {
	if f.name != "" {
		return fmt.Errorf("clc: flow %q: %w", f.name, err)
	}
	return fmt.Errorf("clc: %w", err)
}

// Expr is a symbolic arithmetic expression over Params.
type Expr interface {
	Eval(Params) (float64, error)
	String() string
}

// Const is a constant expression.
type Const float64

// Eval implements Expr.
func (c Const) Eval(Params) (float64, error) { return float64(c), nil }
func (c Const) String() string               { return fmt.Sprintf("%g", float64(c)) }

// Var references a parameter by name.
type Var string

// Eval implements Expr.
func (v Var) Eval(p Params) (float64, error) {
	x, ok := p[string(v)]
	if !ok {
		return 0, fmt.Errorf("unbound parameter %q", string(v))
	}
	return x, nil
}
func (v Var) String() string { return string(v) }

// binExpr is a binary arithmetic expression.
type binExpr struct {
	op   byte
	l, r Expr
}

// BinOp builds l op r for op in + - * /.
func BinOp(op byte, l, r Expr) Expr { return binExpr{op: op, l: l, r: r} }

// Eval implements Expr.
func (b binExpr) Eval(p Params) (float64, error) {
	l, err := b.l.Eval(p)
	if err != nil {
		return 0, err
	}
	r, err := b.r.Eval(p)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("division by zero in %s", b)
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("unknown operator %q", string(b.op))
}

func (b binExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", b.l, b.op, b.r)
}
