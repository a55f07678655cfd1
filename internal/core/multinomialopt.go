package core

import (
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// MultinomialOpt is PrIU-opt for multinomial logistic regression: the
// early-termination strategy of Sec 5.4 applied per class. PrIU capture runs
// for the first ts iterations; the per-class linearization coefficients are
// then frozen at their iteration-ts values, the stabilized full-data matrices
// C*ₖ = Σᵢ aₖᵢ,*·xᵢxᵢᵀ and D*ₖ = Σᵢ cₖᵢ,*·xᵢ are eigendecomposed offline,
// and the online update finishes the remaining τ−ts iterations as scalar
// recurrences in each class's eigenbasis.
type MultinomialOpt struct {
	prov           *MultinomialProvenance
	ts             int
	fullIterations int

	// Stabilized per-class coefficients for every sample: index [k*n+i].
	aStar, cStar []float64
	// Per-class eigendecompositions of C*ₖ and the vectors D*ₖ.
	eigs  []*mat.Eigen
	dStar [][]float64
	// projs[k] memoizes Qₖᵀ·√aₖᵢ,*·xᵢ per removed or previewed row.
	projs []*rowProj
}

// CaptureMultinomialOpt performs the PrIU-opt offline phase for multinomial
// logistic regression.
func CaptureMultinomialOpt(d *dataset.Dataset, cfg gbm.Config, sched *gbm.Schedule, opts Options) (*MultinomialOpt, error) {
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
	capCfg := cfg
	capCfg.Iterations = ts
	prov, err := CaptureMultinomial(d, capCfg, sched, opts)
	if err != nil {
		return nil, err
	}
	mo := &MultinomialOpt{prov: prov, ts: ts, fullIterations: cfg.Iterations}

	m, q, n := d.M(), d.Classes, d.N()
	w := prov.modelL.W
	mo.aStar = make([]float64, q*n)
	mo.cStar = make([]float64, q*n)
	mo.eigs = make([]*mat.Eigen, q)
	mo.dStar = make([][]float64, q)
	cMats := make([]*mat.Dense, q)
	for k := 0; k < q; k++ {
		cMats[k] = mat.NewDense(m, m)
		mo.dStar[k] = make([]float64, m)
	}
	logits := make([]float64, q)
	probs := make([]float64, q)
	for i := 0; i < n; i++ {
		xi := d.X.Row(i)
		for k := 0; k < q; k++ {
			logits[k] = mat.Dot(w.Row(k), xi)
		}
		gbm.Softmax(probs, logits)
		yi := int(d.Y[i])
		for k := 0; k < q; k++ {
			a := probs[k] * (1 - probs[k])
			c := probs[k] - a*logits[k]
			if k == yi {
				c -= 1
			}
			mo.aStar[k*n+i] = a
			mo.cStar[k*n+i] = c
			if a != 0 {
				mat.AddOuter(cMats[k], xi, xi, a)
			}
			mat.Axpy(mo.dStar[k], c, xi)
		}
	}
	for k := 0; k < q; k++ {
		eig, err := mat.NewEigenSym(cMats[k])
		if err != nil {
			return nil, err
		}
		mo.eigs[k] = eig
	}
	mo.projs = newClassProjs(mo.eigs, d.X, mo.aStar)
	return mo, nil
}

// newClassProjs builds one empty row-projection memo per class eigenbasis,
// class k scaling row i by √aₖᵢ,* (aStar is indexed [k*n+i]).
func newClassProjs(eigs []*mat.Eigen, x *mat.Dense, aStar []float64) []*rowProj {
	n := x.Rows()
	projs := make([]*rowProj, len(eigs))
	for k, eig := range eigs {
		projs[k] = newRowProj(eig, x, aStar[k*n:(k+1)*n])
	}
	return projs
}

// Model returns the standard-rule initial model.
func (mo *MultinomialOpt) Model() *gbm.Model { return mo.prov.Model() }

// Ts returns the early-termination iteration.
func (mo *MultinomialOpt) Ts() int { return mo.ts }

// Update computes the updated parameters: PrIU iterations to ts, then the
// per-class eigen recurrences with incrementally updated eigenvalues. Each
// class's eigenvalue corrections come from its row-projection memo: a call
// projects only the removed rows no earlier call or preview projected,
// O(q·|ΔR|·m²), and folds the whole set in O(q·|R|·m). Update runs the
// what-if cursor over the sorted ids, so a preview of the same set returns
// identical bits.
func (mo *MultinomialOpt) Update(removed []int) (*gbm.Model, error) {
	if mo.eigs == nil {
		return nil, ErrNoCapture
	}
	rm, ids, err := removalIDs(mo.prov.data.N(), removed)
	if err != nil {
		return nil, err
	}
	s := mo.cursor()
	s.fold(ids)
	return s.eval(rm)
}

// FootprintBytes returns the provenance memory: the ts-truncated PrIU caches
// plus the per-class O(m²) eigen state and stabilized coefficients. The
// derived row-projection memos (at most q·n·m·8 bytes) are not captured
// provenance and are not counted.
func (mo *MultinomialOpt) FootprintBytes() int64 {
	total := mo.prov.FootprintBytes()
	for k := range mo.eigs {
		r, c := mo.eigs[k].Q.Dims()
		total += int64(r)*int64(c)*8 + int64(len(mo.eigs[k].Values))*8
		total += int64(len(mo.dStar[k])) * 8
	}
	total += int64(len(mo.aStar))*8 + int64(len(mo.cStar))*8
	return total
}
