package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// gramCorrections is the reference Eq 18 correction the row-projection memo
// replaces: with Z the removed rows scaled by √|coef| (unscaled when coef is
// nil) in ascending id order, it returns ‖Z·qⱼ‖² for every eigenvector qⱼ,
// forming Z·qⱼ with Dense.MulVecInto as the per-batch Gram update did.
func gramCorrections(eig *mat.Eigen, x *mat.Dense, coef []float64, ids []int) []float64 {
	m := x.Cols()
	z := mat.NewDense(len(ids), m)
	for r, id := range ids {
		row := z.Row(r)
		copy(row, x.Row(id))
		if coef != nil {
			mat.ScaleVec(row, sqrtAbs(coef[id]))
		}
	}
	out := make([]float64, m)
	col := make([]float64, m)
	prod := make([]float64, len(ids))
	for j := range out {
		for r := 0; r < m; r++ {
			col[r] = eig.Q.At(r, j)
		}
		z.MulVecInto(prod, col)
		for _, v := range prod {
			out[j] += v * v
		}
	}
	return out
}

// assertSameBits compares two vectors with math.Float64bits equality.
func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: entry %d = %v, want %v", name, j, got[j], want[j])
		}
	}
}

// cumulativeLogs returns the cumulative removal lists of a deletion stream
// whose batches arrive out of id order, as a session's log does.
func cumulativeLogs(n, batches, per int, seed int64) [][]int {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	logs := make([][]int, batches)
	for b := range logs {
		logs[b] = append([]int(nil), perm[:(b+1)*per]...)
	}
	return logs
}

// memosOf returns an opt updater's row-projection memos.
func memosOf(u any) []*rowProj {
	switch u := u.(type) {
	case *LogisticOpt:
		return []*rowProj{u.proj}
	case *MultinomialOpt:
		return u.projs
	case *LinearOpt:
		return []*rowProj{u.proj}
	}
	panic(fmt.Sprintf("no memo on %T", u))
}

// filledRows counts the memo slots holding a projection.
func filledRows(u any) int {
	filled := 0
	for _, p := range memosOf(u) {
		for i := range p.slots {
			if p.slots[i].Load() != nil {
				filled++
			}
		}
	}
	return filled
}

// checkMemoDifferential runs every cumulative log through update on a cold
// memo, again on the warm memo, and on a snapshot-restored updater (whose
// memo starts empty), each against the reference built from
// gramCorrections on the same capture.
func checkMemoDifferential(t *testing.T, logs [][]int,
	update func(u any, removed []int) (*gbm.Model, error),
	reference func(u any, removed []int) *gbm.Model,
	fresh func() any, roundTrip func(u any) any) {
	t.Helper()
	run := func(phase string, u any) {
		t.Helper()
		for b, removed := range logs {
			got, err := update(u, removed)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, fmt.Sprintf("%s batch %d", phase, b), got, reference(u, removed))
		}
	}
	u := fresh()
	if got := filledRows(u); got != 0 {
		t.Fatalf("fresh capture has %d memoized rows", got)
	}
	run("cold", u)
	rows := len(logs[len(logs)-1]) * len(memosOf(u))
	if got := filledRows(u); got != rows {
		t.Fatalf("memo holds %d rows after the stream, want %d", got, rows)
	}
	run("warm", u)
	restored := roundTrip(u)
	if got := filledRows(restored); got != 0 {
		t.Fatalf("restored updater has %d memoized rows; the memo is never persisted", got)
	}
	run("restored", restored)
}

func TestRowProjMemoLogisticOptDifferential(t *testing.T) {
	const n = 240
	d, err := dataset.GenerateBinary("memo-log", n, 9, 1.2, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 40, Iterations: 60, Seed: 22}
	sched, err := gbm.NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMemoDifferential(t, cumulativeLogs(n, 8, 4, 23),
		func(u any, removed []int) (*gbm.Model, error) { return u.(*LogisticOpt).Update(removed) },
		func(u any, removed []int) *gbm.Model {
			lo := u.(*LogisticOpt)
			rm, ids, err := removalIDs(n, removed)
			if err != nil {
				t.Fatal(err)
			}
			s := lo.cursor()
			for _, id := range ids {
				mat.Axpy(s.dStar, -lo.bStar[id]*d.Y[id], d.X.Row(id))
			}
			s.sSum = gramCorrections(lo.eig, d.X, lo.aStar, ids)
			s.ids = ids
			memo := lo.cursor()
			memo.fold(ids)
			assertSameBits(t, "logistic-opt corrections", memo.sSum, s.sSum)
			model, err := s.eval(rm)
			if err != nil {
				t.Fatal(err)
			}
			return model
		},
		func() any {
			lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{Mode: ModeFull})
			if err != nil {
				t.Fatal(err)
			}
			return lo
		},
		func(u any) any {
			var buf bytes.Buffer
			if _, err := u.(*LogisticOpt).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			lo, err := LoadLogisticOpt(&buf, d)
			if err != nil {
				t.Fatal(err)
			}
			return lo
		})
}

func TestRowProjMemoMultinomialOptDifferential(t *testing.T) {
	const n = 210
	d, err := dataset.GenerateMulticlass("memo-mul", n, 7, 3, 2.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 35, Iterations: 60, Seed: 32}
	sched, err := gbm.NewSchedule(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMemoDifferential(t, cumulativeLogs(n, 7, 3, 33),
		func(u any, removed []int) (*gbm.Model, error) { return u.(*MultinomialOpt).Update(removed) },
		func(u any, removed []int) *gbm.Model {
			mo := u.(*MultinomialOpt)
			rm, ids, err := removalIDs(n, removed)
			if err != nil {
				t.Fatal(err)
			}
			s := mo.cursor()
			for k := range s.dStar {
				for _, id := range ids {
					mat.Axpy(s.dStar[k], -mo.cStar[k*n+id], d.X.Row(id))
				}
				s.sSum[k] = gramCorrections(mo.eigs[k], d.X, mo.aStar[k*n:(k+1)*n], ids)
			}
			s.ids = ids
			memo := mo.cursor()
			memo.fold(ids)
			for k := range s.sSum {
				assertSameBits(t, fmt.Sprintf("multinomial-opt class %d corrections", k), memo.sSum[k], s.sSum[k])
			}
			model, err := s.eval(rm)
			if err != nil {
				t.Fatal(err)
			}
			return model
		},
		func() any {
			mo, err := CaptureMultinomialOpt(d, cfg, sched, Options{Mode: ModeFull})
			if err != nil {
				t.Fatal(err)
			}
			return mo
		},
		func(u any) any {
			var buf bytes.Buffer
			if _, err := u.(*MultinomialOpt).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			mo, err := LoadMultinomialOpt(&buf, d)
			if err != nil {
				t.Fatal(err)
			}
			return mo
		})
}

func TestRowProjMemoLinearOptDifferential(t *testing.T) {
	// Every cumulative log stays below m = 24 rows: the Δn < m regime the
	// memo serves.
	const n = 200
	d, err := dataset.GenerateRegression("memo-lin", n, 24, 0.05, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 40, Iterations: 60, Seed: 42}
	checkMemoDifferential(t, cumulativeLogs(n, 7, 3, 43),
		func(u any, removed []int) (*gbm.Model, error) { return u.(*LinearOpt).Update(removed) },
		func(u any, removed []int) *gbm.Model {
			lo := u.(*LinearOpt)
			_, ids, err := removalIDs(n, removed)
			if err != nil {
				t.Fatal(err)
			}
			nPrime := mat.CloneVec(lo.n)
			for _, id := range ids {
				mat.Axpy(nPrime, -d.Y[id], d.X.Row(id))
			}
			ref := gramCorrections(lo.eig, d.X, nil, ids)
			memo := lo.cursor()
			memo.fold(ids)
			assertSameBits(t, "linear-opt corrections", memo.sSum, ref)
			cPrime := mat.CloneVec(lo.eig.Values)
			for j, v := range ref {
				cPrime[j] -= v
			}
			return lo.roll(nPrime, cPrime, n-len(ids))
		},
		func() any {
			lo, err := NewLinearOpt(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return lo
		},
		func(u any) any {
			var buf bytes.Buffer
			if _, err := u.(*LinearOpt).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			lo, err := LoadLinearOpt(&buf, d)
			if err != nil {
				t.Fatal(err)
			}
			return lo
		})
}
