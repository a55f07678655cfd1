package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gbm"
)

// sortedRemoved picks k distinct removal ids and returns them ascending, the
// order WhatIfState.Apply requires.
func sortedRemoved(n, k int, seed int64) []int {
	ids := pickRemoved(n, k, seed)
	sort.Ints(ids)
	return ids
}

func assertBitwise(t *testing.T, name string, got, want *gbm.Model) {
	t.Helper()
	gv, wv := got.Vec(), want.Vec()
	if len(gv) != len(wv) {
		t.Fatalf("%s: length %d vs %d", name, len(gv), len(wv))
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("%s: coordinate %d differs: %v vs %v", name, i, gv[i], wv[i])
		}
	}
}

func TestLinearOptWhatIfBitwise(t *testing.T) {
	d, err := dataset.GenerateRegression("wlin", 160, 6, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 40, Iterations: 60, Seed: 3}
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		ids := sortedRemoved(160, k, int64(40+k))
		st, err := lo.WhatIf()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(ids); err != nil {
			t.Fatal(err)
		}
		got, err := st.Eval()
		if err != nil {
			t.Fatal(err)
		}
		want, err := lo.Update(ids)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "linear-opt whatif", got, want)
	}
}

func TestLinearOptWhatIfDenseRegimeFallback(t *testing.T) {
	// Δn ≥ m exercises the dense-congruence fallback inside Eval.
	d, err := dataset.GenerateRegression("wlind", 80, 4, 0.05, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 20, Iterations: 40, Seed: 5}
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := sortedRemoved(80, 6, 77) // 6 ≥ m = 4
	st, err := lo.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(ids); err != nil {
		t.Fatal(err)
	}
	got, err := st.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lo.Update(ids)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "linear-opt dense regime", got, want)

	// The empty set routes through the same fallback.
	empty, err := lo.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	got0, err := empty.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want0, err := lo.Update(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "linear-opt empty set", got0, want0)
}

func TestLogisticOptWhatIfBitwise(t *testing.T) {
	d, err := dataset.GenerateBinary("wlog", 150, 5, 1.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 30, Iterations: 80, Seed: 7}
	sched, err := gbm.NewSchedule(150, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		ids := sortedRemoved(150, k, int64(50+k))
		st, err := lo.WhatIf()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(ids); err != nil {
			t.Fatal(err)
		}
		got, err := st.Eval()
		if err != nil {
			t.Fatal(err)
		}
		want, err := lo.Update(ids)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "logistic-opt whatif", got, want)
	}
}

func TestMultinomialOptWhatIfBitwise(t *testing.T) {
	d, err := dataset.GenerateMulticlass("wmul", 180, 5, 3, 2.5, 14)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.05, Lambda: 0.02, BatchSize: 36, Iterations: 80, Seed: 9}
	sched, err := gbm.NewSchedule(180, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := CaptureMultinomialOpt(d, cfg, sched, Options{Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	ids := sortedRemoved(180, 4, 61)
	st, err := mo.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(ids); err != nil {
		t.Fatal(err)
	}
	got, err := st.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mo.Update(ids)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "multinomial-opt whatif", got, want)
}

func TestWhatIfForkIndependence(t *testing.T) {
	// Apply a shared prefix once, fork, extend the branches differently: each
	// branch must match its own batch Update, and re-evaluating the first
	// branch after the second ran must still agree (no shared mutable state).
	d, err := dataset.GenerateRegression("wfork", 140, 5, 0.05, 15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 35, Iterations: 50, Seed: 11}
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root, err := lo.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{10, 30, 50}
	if err := root.Apply(prefix); err != nil {
		t.Fatal(err)
	}
	a := root.Fork()
	b := root.Fork()
	if err := a.Apply([]int{70}); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply([]int{90, 110}); err != nil {
		t.Fatal(err)
	}

	wantA, err := lo.Update([]int{10, 30, 50, 70})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := lo.Update([]int{10, 30, 50, 90, 110})
	if err != nil {
		t.Fatal(err)
	}
	gotA1, err := a.Eval()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := b.Eval()
	if err != nil {
		t.Fatal(err)
	}
	gotA2, err := a.Eval()
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "fork branch a", gotA1, wantA)
	assertBitwise(t, "fork branch b", gotB, wantB)
	assertBitwise(t, "fork branch a re-eval", gotA2, wantA)

	// The root itself is untouched by the branches.
	gotRoot, err := root.Eval()
	if err != nil {
		t.Fatal(err)
	}
	wantRoot, err := lo.Update(prefix)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "fork root", gotRoot, wantRoot)
}

func TestWhatIfApplyValidation(t *testing.T) {
	d, err := dataset.GenerateRegression("wval", 60, 4, 0.05, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 20, Iterations: 30, Seed: 13}
	lo, err := NewLinearOpt(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := lo.WhatIf()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply([]int{5, 9}); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply([]int{9}); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
	if err := st.Apply([]int{3}); err == nil {
		t.Fatal("descending id must be rejected")
	}
	if err := st.Apply([]int{60}); err == nil {
		t.Fatal("out-of-range id must be rejected")
	}
	// A rejected batch leaves the state intact: the applied set is still
	// {5, 9} and evaluates exactly.
	got, err := st.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lo.Update([]int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "post-rejection state", got, want)
}
