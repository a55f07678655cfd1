package core

import (
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/interp"
	"repro/internal/mat"
)

// LogisticOpt is PrIU-opt for binary logistic regression (Sec 5.4). It
// wraps a PrIU capture truncated at ts = ⌈fraction·τ⌉ iterations and, for the
// remaining τ−ts iterations, freezes the linearization coefficients at their
// iteration-ts values (they stabilize as w converges): the stabilized
// full-data matrices C* = Σᵢ aᵢ,*·xᵢxᵢᵀ and D* = Σᵢ bᵢ,*·yᵢxᵢ are
// eigendecomposed offline, so the online update needs only an incremental
// eigenvalue update for the removed rows plus O((τ−ts)·m) scalar recurrences.
type LogisticOpt struct {
	prov *LogisticProvenance
	ts   int
	// fullIterations is the total horizon τ; the PrIU caches cover only the
	// first ts of them.
	fullIterations int

	// Stabilized coefficients for every sample (aStar ≤ 0).
	aStar, bStar []float64
	// Eigendecomposition of C* and the vector D*.
	eig   *mat.Eigen
	dStar []float64
	// proj memoizes Qᵀ·√(−aᵢ,*)·xᵢ per removed or previewed row.
	proj *rowProj
}

// CaptureLogisticOpt performs the PrIU-opt offline phase: PrIU capture for
// the first ts iterations, then stabilization, full-data C*/D* and the
// eigendecomposition of C*.
func CaptureLogisticOpt(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, lin *interp.Linearizer, opts Options) (*LogisticOpt, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ts := int(float64(cfg.Iterations) * opts.earlyTermFrac())
	if ts < 1 {
		ts = 1
	}
	if ts > cfg.Iterations {
		ts = cfg.Iterations
	}
	// Capture with a config truncated at ts; the schedule still covers the
	// full τ iterations, which updateInto relies on only up to ts.
	capCfg := cfg
	capCfg.Iterations = ts
	prov, err := CaptureLogistic(d, capCfg, sched, lin, opts)
	if err != nil {
		return nil, err
	}
	// Remember the full horizon for the second phase.
	prov.cfg.Iterations = ts // capture stored ts; keep explicit
	lo := &LogisticOpt{prov: prov, ts: ts}
	lo.prov.cfg = capCfg

	m := d.M()
	w := prov.modelL.W.Row(0)
	lo.aStar = make([]float64, d.N())
	lo.bStar = make([]float64, d.N())
	cStar := mat.NewDense(m, m)
	lo.dStar = make([]float64, m)
	linz := prov.lin
	for i := 0; i < d.N(); i++ {
		xi := d.X.Row(i)
		yi := d.Y[i]
		a, b := linz.Coefficients(yi * mat.Dot(xi, w))
		lo.aStar[i], lo.bStar[i] = a, b
		if a != 0 {
			mat.AddOuter(cStar, xi, xi, a)
		}
		mat.Axpy(lo.dStar, b*yi, xi)
	}
	eig, err := mat.NewEigenSym(cStar)
	if err != nil {
		return nil, err
	}
	lo.eig = eig
	lo.proj = newRowProj(eig, d.X, lo.aStar)
	lo.fullIterations = cfg.Iterations
	return lo, nil
}

// Model returns the standard-rule initial model Minit (trained to ts; the
// exact model over the full horizon is available from gbm directly).
func (lo *LogisticOpt) Model() *gbm.Model { return lo.prov.Model() }

// Ts returns the early-termination iteration ts.
func (lo *LogisticOpt) Ts() int { return lo.ts }

// Update computes the updated parameters: PrIU iterations up to ts, then the
// eigen-space recurrence for the remaining τ−ts iterations with incrementally
// updated eigenvalues (Eq 18) and the stabilized D*. The eigenvalue
// corrections come from the row-projection memo: a call projects only the
// removed rows no earlier call or preview projected, O(|ΔR|·m²), and folds
// the whole set in O(|R|·m); the rest is the phase-1 PrIU replay and the
// O((τ−ts)·m + m²) eigenbasis roll. Update runs the what-if cursor over the
// sorted ids, so a preview of the same set returns identical bits.
func (lo *LogisticOpt) Update(removed []int) (*gbm.Model, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	rm, ids, err := removalIDs(lo.prov.data.N(), removed)
	if err != nil {
		return nil, err
	}
	s := lo.cursor()
	s.fold(ids)
	return s.eval(rm)
}

// FootprintBytes returns the provenance memory: the ts-truncated PrIU caches
// plus the O(m²) eigen state and the stabilized coefficients. The derived
// row-projection memo (at most n·m·8 bytes) is not captured provenance and
// is not counted.
func (lo *LogisticOpt) FootprintBytes() int64 {
	total := lo.prov.FootprintBytes()
	r, c := lo.eig.Q.Dims()
	total += int64(r)*int64(c)*8 + int64(len(lo.eig.Values))*8
	total += int64(len(lo.aStar))*8 + int64(len(lo.bStar))*8 + int64(len(lo.dStar))*8
	return total
}
