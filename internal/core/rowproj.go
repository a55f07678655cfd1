package core

import (
	"sort"
	"sync/atomic"

	"repro/internal/gbm"
	"repro/internal/mat"
	"repro/internal/par"
)

// rowProj is the row-projection memo of one PrIU-opt eigenbasis: slot r
// holds P[r] = Qᵀ·z_r, the coordinates of data row r's scaled copy z_r in
// the eigenbasis, where z_r = √|c_r|·x_r for the basis's coefficients c
// (logistic-opt: a*; multinomial-opt: class k's a*ₖ) and z_r = x_r when c is
// nil (linear-opt). Eq 18's eigenvalue correction for a removal set R is
// then Σ_{r∈R} P[r][j]², so a deletion batch projects only its |ΔR| new
// rows (O(|ΔR|·m²)) and folds the cumulative set in O(|R|·m), instead of
// projecting all of R again on every batch.
//
// The memo is derived state: it is filled lazily, the first time a row is
// removed or previewed, never persisted (a restored updater starts empty),
// and bounded by n·m·8 bytes of projections — the size of the training
// matrix — plus one pointer per row. Slots are atomic because what-if
// previews read the memo concurrently with committing updates; every racer
// computes the identical bits, so whichever store wins is the same value.
type rowProj struct {
	qt    *mat.Dense // Qᵀ: row j is eigenvector j, contiguous for the dots
	x     *mat.Dense // training rows
	coef  []float64  // per-row scale coefficients; nil means unscaled
	slots []atomic.Pointer[[]float64]
}

func newRowProj(eig *mat.Eigen, x *mat.Dense, coef []float64) *rowProj {
	return &rowProj{
		qt:    eig.Q.T(),
		x:     x,
		coef:  coef,
		slots: make([]atomic.Pointer[[]float64], x.Rows()),
	}
}

// project computes P[r] into dst; z is scratch of length m. The operand
// order (row element × eigenvector element, ascending coordinates) must stay
// that of Dense.MulVecInto and mat.Dot, so a memoized correction equals
// ‖Z·qⱼ‖² formed directly from the scaled rows, bit for bit.
func (p *rowProj) project(dst, z []float64, r int) {
	xr := p.x.Row(r)
	if p.coef != nil {
		s := sqrtAbs(p.coef[r])
		for j, v := range xr {
			z[j] = s * v
		}
		xr = z
	}
	for j := range dst {
		dst[j] = mat.Dot(xr, p.qt.Row(j))
	}
}

// fill projects every row of ids whose slot is still empty, in parallel over
// the missing rows.
func (p *rowProj) fill(ids []int) {
	var missing []int
	for _, r := range ids {
		if p.slots[r].Load() == nil {
			missing = append(missing, r)
		}
	}
	m := p.qt.Rows()
	par.For(len(missing), par.Grain(m*m), func(lo, hi int) {
		z := make([]float64, m)
		for _, r := range missing[lo:hi] {
			v := make([]float64, m)
			p.project(v, z, r)
			p.slots[r].CompareAndSwap(nil, &v)
		}
	})
}

// addSquares folds Σ_{r∈ids} P[r][j]² into acc[j], row by row in the order
// of ids — the accumulation both Update and the what-if cursors use.
func (p *rowProj) addSquares(acc []float64, ids []int) {
	p.fill(ids)
	for _, r := range ids {
		for j, v := range *p.slots[r].Load() {
			acc[j] += v * v
		}
	}
}

// shiftValues returns Eq 18's updated eigenvalues values[j] + sign·s[j] for
// the Gram corrections s of a removal set of size dn (the eigenvalues
// themselves when dn = 0).
func shiftValues(values, s []float64, sign float64, dn int) []float64 {
	out := mat.CloneVec(values)
	if dn == 0 {
		return out
	}
	for j := range out {
		out[j] += sign * s[j]
	}
	return out
}

// removalIDs validates a removal list against n samples and returns its
// distinct ids ascending — the order every opt family folds rows in.
func removalIDs(n int, removed []int) (map[int]bool, []int, error) {
	rm, err := gbm.RemovalSet(n, removed)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]int, 0, len(rm))
	for i := range rm {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	return rm, ids, nil
}
