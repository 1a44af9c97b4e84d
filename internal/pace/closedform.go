package pace

import (
	"math"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
)

// PredictClosedForm evaluates the model analytically, without simulating
// per-processor clocks. It exists for the paper's Section 6 speculative
// studies (up to 8000 processors), where the template engine would simulate
// thousands of virtual processors per point.
//
// Derivation (matching the template engine's dependency structure): the
// eight octants form four corner-pair groups visiting the 2-D corners in
// boustrophedon order (+x+y, -x+y, -x-y, +x-y). Let S be the block steps of
// one group (2 octants x angle blocks x k blocks) and W the per-stage cost
// (block work + the sender/receiver communication overheads on the critical
// path). Tracing group start times through the corner sequence shows each
// x reversal adds (PX-1) fill stages and each y reversal (PY-1); with this
// corner order x reverses three times and y twice, so one sweep call costs
//
//	T_sweep = [4S + 3(PX-1) + 2(PY-1)] * W + H * L
//
// where H = 3(PX-1)+2(PY-1) counts the fill hops, each additionally paying
// the one-way message transit L (the receiving processor is idle during
// fill, so transit is exposed; in the saturated phase it is hidden).
// The per-iteration total adds the serial source and flux_err subtasks and
// the globalmax reduction; the run closes with one globalsum.
func (e *Evaluator) PredictClosedForm(cfg Config) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srcCost, ferrCost, err := e.serialCosts(cfg)
	if err != nil {
		return nil, err
	}
	blocks := blockMemo{e: e, cfg: cfg}
	fullBlock, err := blocks.cost(cfg.MMI, minInt(cfg.MK, cfg.Grid.NZ))
	if err != nil {
		return nil, err
	}
	nab, nkb := cfg.AngleBlocks(), cfg.KBlocks()

	// Total per-iteration sweep work of one processor, summed over the
	// exact (possibly ragged) block shapes, and the mean per-block cost.
	var workPerIter float64
	for ab := 0; ab < nab; ab++ {
		na := blockLen(ab, cfg.MMI, cfg.Angles)
		for kb := 0; kb < nkb; kb++ {
			nk := blockLen(kb, cfg.MK, cfg.Grid.NZ)
			c, err := blocks.cost(na, nk)
			if err != nil {
				return nil, err
			}
			workPerIter += 8 * c
		}
	}
	steps := 8 * nab * nkb
	wBlock := workPerIter / float64(steps)

	// Per-stage communication overhead on the critical path: full-block
	// message sizes through the fitted Eq. 3 curves. On a hierarchical
	// model the neighbour links of the array resolve to (src, dst) cost
	// classes; a synchronous pipeline's saturated throughput is set by its
	// slowest stage, so each direction is priced at the most expensive
	// class among its links (worstLinkClasses). Flat models are class 0
	// everywhere and skip the scan.
	ewBytes, nsBytes := cfg.messageBytes()
	d := cfg.Decomp
	var cStage, transit float64
	net := e.HW.Net()
	ewCls, nsCls := worstLinkClasses(net, d)
	if d.PX > 1 {
		cStage += net.SendOverheadClass(ewCls, ewBytes, nil) + net.RecvOverheadClass(ewCls, ewBytes, nil)
		transit = net.TransitClass(ewCls, ewBytes, nil)
	}
	if d.PY > 1 {
		cStage += net.SendOverheadClass(nsCls, nsBytes, nil) + net.RecvOverheadClass(nsCls, nsBytes, nil)
		transit = math.Max(transit, net.TransitClass(nsCls, nsBytes, nil))
	}

	fill := fillStages(d)
	stage := wBlock + cStage
	sweep := float64(steps)*stage + float64(fill)*(stage+transit)

	reduce := net.ReduceCost(d.Size(), 8+16, nil)
	iter := srcCost + sweep + ferrCost + reduce
	total := float64(cfg.Iterations)*iter + reduce

	return &Prediction{
		Total:          total,
		SweepPerIter:   sweep,
		SourcePerIter:  srcCost,
		FluxErrPerIter: ferrCost,
		ReducePerIter:  reduce,
		Last:           reduce,
		BlockSeconds:   fullBlock,
		FillStages:     fill,
		Method:         "closed-form",
	}, nil
}

// worstLinkClasses scans the decomposition's east/west and north/south
// neighbour links and returns the most expensive (src, dst) cost class in
// each direction under the model's topology. The wavefront's saturated
// period is gated by its slowest pipeline stage, so these are the classes
// the closed form prices per-stage communication at. Single-class (flat)
// models return (0, 0) without scanning; the scan itself is pure integer
// arithmetic, trivial even at the >8000-rank arrays the closed form
// serves.
func worstLinkClasses(net mp.ClassNetworkModel, d grid.Decomp) (ew, ns int) {
	if net.NetClasses() <= 1 {
		return 0, 0
	}
	for iy := 0; iy < d.PY; iy++ {
		for ix := 0; ix < d.PX; ix++ {
			r := d.Rank(ix, iy)
			if ix+1 < d.PX {
				if c := net.ClassOf(r, d.Rank(ix+1, iy)); c > ew {
					ew = c
				}
			}
			if iy+1 < d.PY {
				if c := net.ClassOf(r, d.Rank(ix, iy+1)); c > ns {
					ns = c
				}
			}
		}
	}
	return ew, ns
}
