package priu

import (
	"testing"
)

func bitwiseEqual(a, b *Model) bool {
	av, bv := a.Vec(), b.Vec()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

func TestWhatIfPlannerIncrementalBitwise(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Incremental() {
		t.Fatal("linear-opt should plan incrementally")
	}
	sets := [][]int{
		{3, 17, 42},
		{3, 17, 42, 60}, // extends the first: full prefix reuse
		{3, 17, 55},     // diverges after {3, 17}
		{3, 17, 42},     // duplicate: memoized leaf
		{90, 95},        // disjoint
		{},              // empty set = current model
	}
	results := p.EvalBatch(sets, 2)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
		want, err := u.Update(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(r.Model, want) {
			t.Fatalf("set %d: planner result differs from Update", i)
		}
	}
	if results[0].Model != results[3].Model {
		t.Fatal("duplicate set should return the memoized model")
	}
	// Shared prefixes were reused: {3,17,42} (3 hits) + {3,17} (2 hits) +
	// the duplicate's full walk (3 hits) = 8.
	if p.CacheHits() < 8 {
		t.Fatalf("cache hits = %d, want >= 8", p.CacheHits())
	}
}

func TestWhatIfPlannerFallbackFamily(t *testing.T) {
	testWorkers(t)
	// Base linear has no WhatIfer capability: the planner must fall back to
	// pure replay with identical results.
	u, err := Train(FamilyLinear, denseSet(t, FamilyLinear), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	if p.Incremental() {
		t.Fatal("base linear should use the replay fallback")
	}
	for _, ids := range [][]int{{2, 9}, {2, 9, 30}, nil} {
		got, err := p.Eval(ids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := u.Update(ids)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("replay fallback differs from Update for %v", ids)
		}
	}
}

func TestWhatIfPlannerNodeCap(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxNodes = 3 // root + 2 retained nodes
	sets := [][]int{{1, 2}, {1, 3, 5}, {4, 6}}
	results := p.EvalBatch(sets, 1)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
		want, err := u.Update(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(r.Model, want) {
			t.Fatalf("set %d: capped planner result differs from Update", i)
		}
	}
	if p.Nodes() > 3 {
		t.Fatalf("retained nodes = %d, want <= cap 3", p.Nodes())
	}
}

func TestWhatIfPlannerRejectsBadSets(t *testing.T) {
	testWorkers(t)
	u, err := Train(FamilyLinearOpt, denseSet(t, FamilyLinearOpt), testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWhatIfPlanner(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{5, 5}, {9, 3}, {-1}, {100000}} {
		if _, err := p.Eval(bad); err == nil {
			t.Fatalf("set %v should be rejected", bad)
		}
	}
	// The trie still works after rejections.
	got, err := p.Eval([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := u.Update([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(got, want) {
		t.Fatal("post-rejection eval differs from Update")
	}
}

func TestWhatIfConcurrentWithUpdateSharesMemo(t *testing.T) {
	// Previews run off the session lock while deletions commit, so the
	// planner and Update read and fill one updater's row-projection memo at
	// the same time. Every result must still equal a twin updater's
	// sequential answer bit for bit (run under -race to check the memo).
	testWorkers(t)
	for _, family := range []string{FamilyLinearOpt, FamilyLogisticOpt, FamilyMultinomialOpt} {
		ds := denseSet(t, family)
		u, err := Train(family, ds, testOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Train(family, ds, testOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		sets := [][]int{{4, 9, 21}, {4, 9, 21, 40}, {4, 9, 33}, {7, 50, 51}}
		logs := [][]int{{40, 4}, {40, 4, 33, 9}, {40, 4, 33, 9, 51, 7}}
		want := func(ids []int) *Model {
			m, err := twin.Update(ids)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		wantSets := make([]*Model, len(sets))
		for i, s := range sets {
			wantSets[i] = want(s)
		}
		wantLogs := make([]*Model, len(logs))
		for i, l := range logs {
			wantLogs[i] = want(l)
		}

		errs := make(chan string, 2)
		go func() {
			for round := 0; round < 3; round++ {
				p, err := NewWhatIfPlanner(u)
				if err != nil {
					errs <- err.Error()
					return
				}
				for i, r := range p.EvalBatch(sets, 2) {
					if r.Err != nil || !bitwiseEqual(r.Model, wantSets[i]) {
						errs <- family + ": preview differs from sequential Update"
						return
					}
				}
			}
			errs <- ""
		}()
		go func() {
			for round := 0; round < 3; round++ {
				for i, l := range logs {
					m, err := u.Update(l)
					if err != nil || !bitwiseEqual(m, wantLogs[i]) {
						errs <- family + ": concurrent Update differs from sequential Update"
						return
					}
				}
			}
			errs <- ""
		}()
		for i := 0; i < 2; i++ {
			if msg := <-errs; msg != "" {
				t.Fatal(msg)
			}
		}
	}
}
