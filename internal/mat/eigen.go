package mat

import (
	"errors"
	"math"
	"sort"

	"repro/internal/par"
)

// Eigen holds the eigendecomposition of a real symmetric matrix
// A = Q * diag(Values) * Qᵀ with Q orthogonal and eigenvalues sorted in
// descending order. PrIU-opt (Sec 5.2/5.4 of the paper) relies on this
// decomposition of M = XᵀX (linear regression) and of the stabilized
// provenance matrix C (logistic regression).
type Eigen struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Q has the corresponding eigenvectors as columns.
	Q *Dense
}

// jacobiMaxSweeps bounds the cyclic-Jacobi iteration. Cyclic Jacobi
// converges quadratically once the off-diagonal mass is small, so symmetric
// matrices of the sizes used here (feature-space dimension) stop after about
// ten sweeps; the cap only guards against a threshold round-off never meets.
const jacobiMaxSweeps = 64

// NewEigenSym computes the eigendecomposition of the symmetric matrix a using
// a tournament-ordered parallel cyclic Jacobi method. Only symmetry to within
// round-off is assumed.
//
// Each sweep is organized as the N−1 rounds of a round-robin tournament:
// within a round every index appears in exactly one rotation pair, so the
// pairs' rotations act on disjoint coordinates and commute. All rotation
// angles for a round are computed from the round-start matrix (a rotation's
// defining entries (p,p), (p,q), (q,q) are untouched by the other pairs of
// the round, so the annihilation stays exact), then applied in two batched
// phases — column rotations, then row rotations plus Q-column rotations —
// each phase writing pair-disjoint columns or rows. Phases parallelize over
// pairs on the par pool; since every matrix element is written by exactly one
// pair per phase and the schedule is fixed, the result is bitwise identical
// at any worker count. The same tournament schedule runs serially on a single
// worker, so there is no separate serial algorithm to diverge from.
//
// Convergence is tested at the top of every sweep by rescanning the
// upper-triangle sum of squares: O(n²) against the sweep's O(n³) rotations.
// A running value decremented by each annihilated apq² would skip the
// rescans, but it keeps the round-off of its first O(‖A‖²) value and never
// falls below the threshold, so converged matrices would run to the cap.
func NewEigenSym(a *Dense) (*Eigen, error) {
	e, _, err := eigenSym(a)
	return e, err
}

// eigenSym is NewEigenSym that also reports the number of Jacobi sweeps run.
func eigenSym(a *Dense) (*Eigen, int, error) {
	if a.rows != a.cols {
		return nil, 0, errors.New("mat: NewEigenSym requires a square matrix")
	}
	n := a.rows
	w := a.Clone()
	q := Identity(n)
	if n == 1 {
		return &Eigen{Values: []float64{w.At(0, 0)}, Q: q}, 0, nil
	}
	// Scale-aware stopping threshold.
	var fro float64
	for _, v := range w.data {
		fro += v * v
	}
	tol := 1e-28 * (fro + 1)

	// Round-robin tournament state: player 0 stays fixed, the rest rotate one
	// slot per round; odd n adds a bye slot.
	nPlayers := n
	if nPlayers%2 == 1 {
		nPlayers++
	}
	half := nPlayers / 2
	rounds := nPlayers - 1
	perm := make([]int, nPlayers)
	for i := range perm {
		perm[i] = i
	}
	pp := make([]int, half)
	pq := make([]int, half)
	cs := make([]float64, half)
	sn := make([]float64, half)
	grain := parGrain(12 * n)

	sweeps := 0
	for ; sweeps < jacobiMaxSweeps && offUpper(w) > tol; sweeps++ {
		for r := 0; r < rounds; r++ {
			np := 0
			for i := 0; i < half; i++ {
				p, qi := perm[i], perm[nPlayers-1-i]
				if p >= n || qi >= n {
					continue // bye slot on odd n
				}
				if p > qi {
					p, qi = qi, p
				}
				apq := w.At(p, qi)
				if apq == 0 {
					continue
				}
				app, aqq := w.At(p, p), w.At(qi, qi)
				// Compute the Jacobi rotation that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e100 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				pp[np], pq[np], cs[np], sn[np] = p, qi, c, s
				np++
			}
			if np > 0 {
				// Phase 1: W ← W·G, pair-disjoint column pairs.
				par.For(np, grain, func(lo, hi int) {
					for t := lo; t < hi; t++ {
						rotateColumns(w, pp[t], pq[t], cs[t], sn[t])
					}
				})
				// Phase 2: W ← Gᵀ·W (pair-disjoint row pairs) and Q ← Q·G
				// (pair-disjoint column pairs of the separate matrix Q).
				par.For(np, grain, func(lo, hi int) {
					for t := lo; t < hi; t++ {
						rotateRows(w, pp[t], pq[t], cs[t], sn[t])
						rotateColumns(q, pp[t], pq[t], cs[t], sn[t])
					}
				})
			}
			rotateSchedule(perm)
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedQ := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedQ.Set(r, newCol, q.At(r, oldCol))
		}
	}
	return &Eigen{Values: sortedVals, Q: sortedQ}, sweeps, nil
}

// offUpper returns the sum of squares of the strictly upper triangle.
func offUpper(w *Dense) float64 {
	n := w.cols
	var s float64
	for i := 0; i < n-1; i++ {
		ri := w.data[i*n+i+1 : (i+1)*n]
		for _, v := range ri {
			s += v * v
		}
	}
	return s
}

// rotateColumns applies the plane rotation G(p,r,θ) on the right: columns p
// and r of m are mixed, all other elements untouched.
func rotateColumns(m *Dense, p, r int, c, s float64) {
	stride := m.cols
	for k := 0; k < m.rows; k++ {
		kp := k * stride
		akp, akr := m.data[kp+p], m.data[kp+r]
		m.data[kp+p] = c*akp - s*akr
		m.data[kp+r] = s*akp + c*akr
	}
}

// rotateRows applies the plane rotation on the left: rows p and r of m are
// mixed, all other elements untouched.
func rotateRows(m *Dense, p, r int, c, s float64) {
	rp := m.data[p*m.cols : (p+1)*m.cols]
	rr := m.data[r*m.cols : (r+1)*m.cols]
	for k, apk := range rp {
		ark := rr[k]
		rp[k] = c*apk - s*ark
		rr[k] = s*apk + c*ark
	}
}

// rotateSchedule advances the round-robin tournament one round: slot 0 is
// fixed, slots 1..N−1 rotate by one.
func rotateSchedule(perm []int) {
	last := perm[len(perm)-1]
	copy(perm[2:], perm[1:len(perm)-1])
	perm[1] = last
}

// Reconstruct returns Q*diag(Values)*Qᵀ, primarily for testing.
func (e *Eigen) Reconstruct() *Dense {
	n := len(e.Values)
	qd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Set(i, j, e.Q.At(i, j)*e.Values[j])
		}
	}
	return qd.Mul(e.Q.T())
}

// UpdateValues implements the incremental eigenvalue update of Ning et al.
// used by PrIU-opt (Eq 18): when M' = M + delta is a small perturbation and
// the eigenvectors of M' are approximated by those of M, the updated
// eigenvalues are the diagonal of Qᵀ*M'*Q, i.e. Values[i] + (Qᵀ*delta*Q)[i][i].
// delta must be n×n. The receiver is not modified; updated values are
// returned in the eigenbasis order of e.
func (e *Eigen) UpdateValues(delta *Dense) []float64 {
	n := len(e.Values)
	if delta.rows != n || delta.cols != n {
		panic("mat: UpdateValues dimension mismatch")
	}
	out := make([]float64, n)
	// Each eigenvalue update is independent; chunks carry their own scratch.
	par.For(n, parGrain(2*n*n), func(lo, hi int) {
		tmp := make([]float64, n)
		col := make([]float64, n)
		for i := lo; i < hi; i++ {
			// col = i-th eigenvector.
			for r := 0; r < n; r++ {
				col[r] = e.Q.At(r, i)
			}
			delta.MulVecInto(tmp, col)
			out[i] = e.Values[i] + Dot(col, tmp)
		}
	})
	return out
}
