package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// LinearOpt holds the offline state of PrIU-opt for linear regression
// (Sec 5.2): the GD approximation replaces the mini-batch sums with the
// full-data matrices M = XᵀX and N = XᵀY, eigendecomposed once offline;
// the online update then only (a) incrementally updates the eigenvalues for
// the removed rows (Eq 18, Ning et al.) and (b) rolls the τ iterations as
// scalar recurrences in the eigenbasis (Eq 17) — O(min{Δn,m}·m²) + O(τm),
// where for Δn < m the row-projection memo cuts the first term to
// O(|ΔR|·m²) for the rows new since earlier calls plus O(Δn·m).
type LinearOpt struct {
	cfg  gbm.Config
	data *dataset.Dataset

	eig   *mat.Eigen // eigendecomposition of M = XᵀX (Q orthogonal)
	n     []float64  // N = XᵀY
	model *gbm.Model // GD-approximation model over the full dataset
	proj  *rowProj   // memoized Qᵀ·xᵢ per removed or previewed row
}

// NewLinearOpt performs the offline phase of PrIU-opt: M, N and the
// eigendecomposition of M.
func NewLinearOpt(d *dataset.Dataset, cfg gbm.Config) (*LinearOpt, error) {
	lo, err := newLinearOptState(d, cfg)
	if err != nil {
		return nil, err
	}
	// The no-removal update is the GD approximation of Minit over the full
	// data — cheap (O(τm + m²)) and it gives the family a uniform Model().
	model, err := lo.Update(nil)
	if err != nil {
		return nil, err
	}
	lo.model = model
	return lo, nil
}

// newLinearOptState builds the eigen state (M = XᵀX eigendecomposed, N = XᵀY)
// without the initial model — shared by capture and snapshot restore, which
// rebuilds this cheap state from the dataset instead of serializing it.
func newLinearOptState(d *dataset.Dataset, cfg gbm.Config) (*LinearOpt, error) {
	if err := cfg.Validate(d.N()); err != nil {
		return nil, err
	}
	if d.Task != dataset.Regression {
		return nil, fmt.Errorf("core: NewLinearOpt requires a regression dataset, got %v", d.Task)
	}
	m := d.X.Gram()
	eig, err := mat.NewEigenSym(m)
	if err != nil {
		return nil, err
	}
	return &LinearOpt{cfg: cfg, data: d, eig: eig, n: d.X.MulVecT(d.Y), proj: newRowProj(eig, d.X, nil)}, nil
}

// Model returns the GD-approximation model trained over the full dataset
// (Sec 5.2 replaces mini-batch SGD with full-batch GD offline).
func (lo *LinearOpt) Model() *gbm.Model { return lo.model }

// Update computes the updated model parameters after removing the given
// samples, using incremental eigenvalue updates and the closed iteration of
// Eq 17 with constant learning rate. The updated eigenvalues of
// M' = M − ΔXᵀΔX (Eq 18) follow the paper's two cost regimes,
// O(min{Δn,m}·m²): for Δn < m the row-projection memo supplies each
// removed row's eigen coordinates, projecting only rows no earlier call or
// preview projected (O(|ΔR|·m²)) and folding the set in O(|R|·m) through
// the what-if cursor, so a preview returns identical bits; for Δn ≥ m the
// m×m ΔXᵀΔX is formed once and its diagonal congruence entries taken.
func (lo *LinearOpt) Update(removed []int) (*gbm.Model, error) {
	if lo.eig == nil {
		return nil, ErrNoCapture
	}
	rm, ids, err := removalIDs(lo.data.N(), removed)
	if err != nil {
		return nil, err
	}
	m := lo.data.M()
	dn := len(ids)
	nEff := lo.data.N() - dn
	if nEff <= 0 {
		return nil, fmt.Errorf("core: removal leaves no samples")
	}
	if dn < m {
		s := lo.cursor()
		s.fold(ids)
		return s.Eval()
	}
	nPrime := mat.CloneVec(lo.n)
	delta := mat.NewDense(m, m)
	for i := 0; i < lo.data.N(); i++ {
		if !rm[i] {
			continue
		}
		xi := lo.data.X.Row(i)
		mat.AddOuter(delta, xi, xi, -1)
		mat.Axpy(nPrime, -lo.data.Y[i], xi)
	}
	return lo.roll(nPrime, lo.eig.UpdateValues(delta), nEff), nil
}

// roll evaluates Eq 17's per-eigencoordinate recurrence with w⁽⁰⁾ = 0:
// z_i ← γ_i·z_i + β_i with γ_i = 1 − ηλ − 2η·c'_i/n' and
// β_i = 2η/n'·(QᵀN')_i, for τ iterations — O(τm).
func (lo *LinearOpt) roll(nPrime, cPrime []float64, nEff int) *gbm.Model {
	m := lo.data.M()
	eta, lambda := lo.cfg.Eta, lo.cfg.Lambda
	qtn := lo.eig.Q.MulVecT(nPrime)
	z := make([]float64, m)
	rollRecurrence(z, lo.cfg.Iterations, func(i int) (gamma, beta, z0 float64) {
		return 1 - eta*lambda - 2*eta*cPrime[i]/float64(nEff),
			2 * eta / float64(nEff) * qtn[i],
			0
	})
	w := lo.eig.Q.MulVec(z)
	return &gbm.Model{Task: dataset.Regression, W: mat.NewDenseData(1, m, w)}
}

// FootprintBytes returns the offline state's memory: Q, the eigenvalues and
// N — O(m²), independent of τ (the space win of Sec 5.2). The derived
// row-projection memo (at most n·m·8 bytes) is not counted.
func (lo *LinearOpt) FootprintBytes() int64 {
	r, c := lo.eig.Q.Dims()
	return int64(r)*int64(c)*8 + int64(len(lo.eig.Values))*8 + int64(len(lo.n))*8
}
