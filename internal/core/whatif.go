package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// What-if evaluation: forkable, read-only cursors over a PrIU-opt capture.
//
// A WhatIfState accumulates a removal set incrementally — Apply(id) folds one
// more removed row into the state's partial sums — and Eval materializes the
// updated model for the set applied so far, without touching the underlying
// updater. Fork copies the partial sums, so a planner can apply a shared
// prefix of several candidate sets once and branch: k overlapping sets cost
// the union's row work instead of k full replays.
//
// Bitwise contract: for every applied set R (strictly ascending, as Apply
// enforces), Eval() returns the exact bits Update(R) would. It holds by
// construction: each opt family's Update is a fresh cursor that folds the
// sorted removal ids and evaluates, so commit and preview run one code path.
// Both read their per-row eigen projections P[r] = Qᵀ·z_r from the updater's
// shared row-projection memo (rowProj), which computes each row's projection
// once, with one fixed operand order, whichever caller asks first; the
// per-eigenvalue Gram corrections Σ_{r∈R} P[r][j]² then fold rows in
// ascending id order starting from zero, however the set was split across
// Apply calls and forks.

// WhatIfState is a forkable what-if cursor. Apply folds additional removed
// row ids into the state (ids must be strictly ascending across all Apply
// calls — the order the batch Update paths fold rows in); Fork returns an
// independent copy sharing only captured state and the updater's
// concurrency-safe row-projection memo; Eval returns the model the
// updater's Update would produce for the applied set. A rejected Apply
// leaves the state unchanged.
type WhatIfState interface {
	Apply(ids []int) error
	Fork() WhatIfState
	Eval() (*gbm.Model, error)
}

// checkWhatIfIDs validates that ids are in range and strictly ascending past
// the current tail cur. Validation is complete before the caller mutates any
// accumulator, so a rejected batch leaves the state usable.
func checkWhatIfIDs(cur, ids []int, n int) error {
	last := -1
	if len(cur) > 0 {
		last = cur[len(cur)-1]
	}
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("core: whatif id %d out of range [0,%d)", id, n)
		}
		if id <= last {
			return fmt.Errorf("core: whatif ids must be strictly ascending (%d after %d)", id, last)
		}
		last = id
	}
	return nil
}

// linearWhatIf incrementally maintains N' = N − Σ yᵢxᵢ and the per-eigenvalue
// Gram corrections ‖ΔX·qⱼ‖² for LinearOpt (Sec 5.2).
type linearWhatIf struct {
	lo     *LinearOpt
	ids    []int
	nPrime []float64
	sSum   []float64
}

func (lo *LinearOpt) cursor() *linearWhatIf {
	return &linearWhatIf{
		lo:     lo,
		nPrime: mat.CloneVec(lo.n),
		sSum:   make([]float64, lo.data.M()),
	}
}

// WhatIf returns a forkable what-if cursor over the capture.
func (lo *LinearOpt) WhatIf() (WhatIfState, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	return lo.cursor(), nil
}

// fold adds validated ids, ascending past the current tail, to the sums.
func (s *linearWhatIf) fold(ids []int) {
	for _, id := range ids {
		mat.Axpy(s.nPrime, -s.lo.data.Y[id], s.lo.data.X.Row(id))
	}
	s.lo.proj.addSquares(s.sSum, ids)
	s.ids = append(s.ids, ids...)
}

func (s *linearWhatIf) Apply(ids []int) error {
	if err := checkWhatIfIDs(s.ids, ids, s.lo.data.N()); err != nil {
		return err
	}
	s.fold(ids)
	return nil
}

func (s *linearWhatIf) Fork() WhatIfState {
	return &linearWhatIf{
		lo:     s.lo,
		ids:    append([]int(nil), s.ids...),
		nPrime: mat.CloneVec(s.nPrime),
		sSum:   mat.CloneVec(s.sSum),
	}
}

func (s *linearWhatIf) Eval() (*gbm.Model, error) {
	dn := len(s.ids)
	if dn >= s.lo.data.M() {
		// Δn ≥ m switches to the dense congruence, which the Gram
		// accumulation does not model; the (pure) batch path serves it.
		return s.lo.Update(s.ids)
	}
	nEff := s.lo.data.N() - dn
	if nEff <= 0 {
		return nil, fmt.Errorf("core: removal leaves no samples")
	}
	return s.lo.roll(s.nPrime, shiftValues(s.lo.eig.Values, s.sSum, -1, dn), nEff), nil
}

// logisticWhatIf incrementally maintains D*' and the Gram corrections
// ‖Z·qⱼ‖² (rows √(−aᵢ,*)·xᵢ) for LogisticOpt (Sec 5.4). The PrIU phase-1
// roll to ts is a function of the full set and runs at Eval.
type logisticWhatIf struct {
	lo    *LogisticOpt
	ids   []int
	dStar []float64
	sSum  []float64
}

func (lo *LogisticOpt) cursor() *logisticWhatIf {
	return &logisticWhatIf{
		lo:    lo,
		dStar: mat.CloneVec(lo.dStar),
		sSum:  make([]float64, lo.prov.data.M()),
	}
}

// WhatIf returns a forkable what-if cursor over the capture.
func (lo *LogisticOpt) WhatIf() (WhatIfState, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	return lo.cursor(), nil
}

// fold adds validated ids, ascending past the current tail, to the sums.
func (s *logisticWhatIf) fold(ids []int) {
	d := s.lo.prov.data
	for _, id := range ids {
		mat.Axpy(s.dStar, -s.lo.bStar[id]*d.Y[id], d.X.Row(id))
	}
	s.lo.proj.addSquares(s.sSum, ids)
	s.ids = append(s.ids, ids...)
}

func (s *logisticWhatIf) Apply(ids []int) error {
	if err := checkWhatIfIDs(s.ids, ids, s.lo.prov.data.N()); err != nil {
		return err
	}
	s.fold(ids)
	return nil
}

func (s *logisticWhatIf) Fork() WhatIfState {
	return &logisticWhatIf{
		lo:    s.lo,
		ids:   append([]int(nil), s.ids...),
		dStar: mat.CloneVec(s.dStar),
		sSum:  mat.CloneVec(s.sSum),
	}
}

func (s *logisticWhatIf) Eval() (*gbm.Model, error) {
	rm, err := gbm.RemovalSet(s.lo.prov.data.N(), s.ids)
	if err != nil {
		return nil, err
	}
	return s.eval(rm)
}

// eval runs PrIU to ts on the removal set rm (the applied ids), then the
// eigen-space recurrence for the remaining τ−ts iterations with Eq 18's
// eigenvalues of C*' = C* − ΔC* (aᵢ,* ≤ 0 ⇒ −ΔC* = ZᵀZ, hence sign +1) and
// the stabilized D*'.
func (s *logisticWhatIf) eval(rm map[int]bool) (*gbm.Model, error) {
	d := s.lo.prov.data
	m := d.M()
	dn := len(s.ids)
	nEff := d.N() - dn
	if nEff <= 0 {
		return nil, fmt.Errorf("core: removal leaves no samples")
	}
	w := make([]float64, m)
	s.lo.prov.updateInto(w, rm, 0, s.lo.ts)
	cPrime := shiftValues(s.lo.eig.Values, s.sSum, +1, dn)
	// z ← (1−ηλ + η·c'ᵢ/n')·z + η·(QᵀD*')ᵢ/n', for τ−ts iterations.
	eta, lambda := s.lo.prov.cfg.Eta, s.lo.prov.cfg.Lambda
	zc := s.lo.eig.Q.MulVecT(w)
	dt := s.lo.eig.Q.MulVecT(s.dStar)
	rem := s.lo.fullIterations - s.lo.ts
	rollRecurrence(zc, rem, func(i int) (gamma, beta, z0 float64) {
		return 1 - eta*lambda + eta*cPrime[i]/float64(nEff),
			eta * dt[i] / float64(nEff),
			zc[i]
	})
	w = s.lo.eig.Q.MulVec(zc)
	return &gbm.Model{Task: dataset.BinaryClassification, W: mat.NewDenseData(1, m, w)}, nil
}

// multinomialWhatIf is the per-class generalization: D*ₖ' and the class-k
// Gram corrections accumulate per applied row, the per-class eigen
// recurrences run at Eval.
type multinomialWhatIf struct {
	mo    *MultinomialOpt
	ids   []int
	dStar [][]float64
	sSum  [][]float64
}

func (mo *MultinomialOpt) cursor() *multinomialWhatIf {
	m, q := mo.prov.data.M(), mo.prov.q
	s := &multinomialWhatIf{
		mo:    mo,
		dStar: make([][]float64, q),
		sSum:  make([][]float64, q),
	}
	for k := 0; k < q; k++ {
		s.dStar[k] = mat.CloneVec(mo.dStar[k])
		s.sSum[k] = make([]float64, m)
	}
	return s
}

// WhatIf returns a forkable what-if cursor over the capture.
func (mo *MultinomialOpt) WhatIf() (WhatIfState, error) {
	if mo.eigs == nil {
		return nil, ErrNoCapture
	}
	return mo.cursor(), nil
}

// fold adds validated ids, ascending past the current tail, to the sums.
func (s *multinomialWhatIf) fold(ids []int) {
	d := s.mo.prov.data
	n := d.N()
	for k := range s.dStar {
		for _, id := range ids {
			mat.Axpy(s.dStar[k], -s.mo.cStar[k*n+id], d.X.Row(id))
		}
		s.mo.projs[k].addSquares(s.sSum[k], ids)
	}
	s.ids = append(s.ids, ids...)
}

func (s *multinomialWhatIf) Apply(ids []int) error {
	if err := checkWhatIfIDs(s.ids, ids, s.mo.prov.data.N()); err != nil {
		return err
	}
	s.fold(ids)
	return nil
}

func (s *multinomialWhatIf) Fork() WhatIfState {
	f := &multinomialWhatIf{
		mo:    s.mo,
		ids:   append([]int(nil), s.ids...),
		dStar: make([][]float64, len(s.dStar)),
		sSum:  make([][]float64, len(s.sSum)),
	}
	for k := range s.dStar {
		f.dStar[k] = mat.CloneVec(s.dStar[k])
		f.sSum[k] = mat.CloneVec(s.sSum[k])
	}
	return f
}

func (s *multinomialWhatIf) Eval() (*gbm.Model, error) {
	rm, err := gbm.RemovalSet(s.mo.prov.data.N(), s.ids)
	if err != nil {
		return nil, err
	}
	return s.eval(rm)
}

// eval runs PrIU to ts on the removal set rm (the applied ids), then each
// class's eigen recurrence with Eq 18's eigenvalues of C*ₖ' = C*ₖ − ΔC*ₖ
// (aₖᵢ,* ≥ 0 ⇒ ΔC*ₖ = ZᵀZ, hence sign −1) and D*ₖ'.
func (s *multinomialWhatIf) eval(rm map[int]bool) (*gbm.Model, error) {
	d := s.mo.prov.data
	m, q := d.M(), s.mo.prov.q
	dn := len(s.ids)
	nEff := d.N() - dn
	if nEff <= 0 {
		return nil, fmt.Errorf("core: removal leaves no samples")
	}
	w := mat.NewDense(q, m)
	s.mo.prov.updateInto(w, rm, 0, s.mo.ts)
	eta, lambda := s.mo.prov.cfg.Eta, s.mo.prov.cfg.Lambda
	rem := s.mo.fullIterations - s.mo.ts
	for k := 0; k < q; k++ {
		cPrime := shiftValues(s.mo.eigs[k].Values, s.sSum[k], -1, dn)
		zc := s.mo.eigs[k].Q.MulVecT(w.Row(k))
		dt := s.mo.eigs[k].Q.MulVecT(s.dStar[k])
		for i := 0; i < m; i++ {
			gamma := 1 - eta*lambda - eta*cPrime[i]/float64(nEff)
			beta := -eta * dt[i] / float64(nEff)
			zi := zc[i]
			for t := 0; t < rem; t++ {
				zi = gamma*zi + beta
			}
			zc[i] = zi
		}
		copy(w.Row(k), s.mo.eigs[k].Q.MulVec(zc))
	}
	return &gbm.Model{Task: dataset.MultiClassification, W: w}, nil
}
