package main

import (
	"fmt"
	"sort"
	"time"

	"repro/priu"
	"repro/priu/service"
)

// workloadSpec is one seeded operation list. Every workload runs a fixed
// amount of work (it scales with --seconds, never with a clock), each
// session's schedule starts from a fresh session, and all verification and
// twin work runs outside the timed phase.
type workloadSpec struct {
	// maxSessions is priuserve's -max-sessions (0 = no resident budget).
	maxSessions int
	// setups is how many times the untraced pass sets up (setup_s is their
	// median); capture-heavy workloads set up once.
	setups int
	// primary names the operation kinds behind op_p50_ms / op_p90_ms.
	primary []string
	// wantMiss is the store miss ratio the workload must show: every
	// store-touching operation restores from disk (1) or none does (0).
	wantMiss float64
	setup    func(p *pass) error
	timed    func(p *pass) error
	verify   func(p *pass)
	// work is the numerator of work_per_s.
	work func(p *pass) int
}

var workloads = map[string]*workloadSpec{
	"hot-deletes":    hotDeletes,
	"whatif-preview": whatifPreview,
	"cold-churn":     coldChurn,
}

// hot-deletes: resident PrIU-opt sessions streaming small sorted removal
// batches. The incremental eigen update plus truncated replay dominates each
// batch; the store only serves resident hits and writes O(batch) delta
// spills in the background.
const (
	hotSessions         = 4
	hotN                = 8000
	hotM                = 100
	hotIters            = 200
	hotBatchRows        = 10
	hotWarmBatches      = 2
	hotBatchesPerSecond = 20 // per session, per unit of --seconds
)

var hotDeletes = &workloadSpec{
	primary: []string{"delete"},
	setup: func(p *pass) error {
		if err := createSessions(p, priu.FamilyLogisticOpt, hotSessions, hotN, hotM, hotIters); err != nil {
			return err
		}
		for _, s := range p.sessions {
			if err := p.streamBatches(s, removals(p, s, hotWarmBatches, hotBatchRows), false); err != nil {
				return err
			}
		}
		return nil
	},
	timed: func(p *pass) error {
		k := hotBatchesPerSecond * p.o.seconds
		for _, s := range p.sessions {
			if err := p.streamBatches(s, removals(p, s, k, hotBatchRows), true); err != nil {
				return err
			}
		}
		return nil
	},
	verify: func(p *pass) { p.verifyFinal() },
	work:   func(p *pass) int { return p.rows },
}

// whatif-preview: resident PrIU-opt sessions with a committed deletion
// prefix, previewing candidate sets that are never committed. The same core
// layer runs read-only through the what-if planner's prefix tree; nothing
// mutates, so nothing spills.
const (
	previewSessions          = 4
	previewCommittedBatches  = 20
	previewSetsPerRequest    = 8
	previewPrefixRows        = 5
	previewRequestsPerSecond = 40
	previewSampleEvery       = 16 // every n-th request is re-evaluated by the twin
)

var whatifPreview = &workloadSpec{
	primary: []string{"whatif"},
	setup: func(p *pass) error {
		if err := createSessions(p, priu.FamilyLogisticOpt, previewSessions, hotN, hotM, hotIters); err != nil {
			return err
		}
		for _, s := range p.sessions {
			if err := p.streamBatches(s, removals(p, s, previewCommittedBatches, hotBatchRows), false); err != nil {
				return err
			}
		}
		return nil
	},
	timed: func(p *pass) error {
		n := previewRequestsPerSecond * p.o.seconds
		for r := 0; r < n; r++ {
			s := p.sessions[r%len(p.sessions)]
			p.whatif(s, candidateSets(p, s), r%previewSampleEvery == 0)
		}
		return nil
	},
	verify: func(p *pass) {
		p.verifyFinal()
		p.verifyPreviews()
	},
	work: func(p *pass) int { return p.sets },
}

// cold-churn: more sessions than the resident budget, touched round-robin
// so every touch restores a base+delta chain from disk and evicts the LRU
// session. Touches alternate a GET and a one-batch deletion stream; every
// churnCycle-th slot creates a fresh session and drops the oldest, which
// keeps deletion-log and chain lengths stationary.
const (
	churnLive         = 12
	churnResident     = 4
	churnN            = 2000
	churnM            = 25
	churnIters        = 100
	churnCycle        = 24
	churnMaxRows      = 5
	churnOpsPerSecond = 150
)

var coldChurn = &workloadSpec{
	maxSessions: churnResident,
	setups:      3,
	primary:     []string{"get", "delete"},
	wantMiss:    1,
	setup: func(p *pass) error {
		for i := 0; i < churnLive; i++ {
			s, err := p.newSession(priu.FamilyLinear, churnN, churnM, churnIters, i)
			if err != nil {
				return err
			}
			if !p.create(s, false) {
				return fmt.Errorf("creating session %d failed", i)
			}
			// Pre-age the initial sessions like the stationary rotation
			// would: the oldest has lived through the most deletion ops.
			var batches [][]int
			for b := 0; b < churnLive-1-i; b++ {
				batches = append(batches, p.removal(s, 1+p.rng.Intn(churnMaxRows)))
			}
			if err := p.streamBatches(s, batches, false); err != nil {
				return err
			}
		}
		return nil
	},
	timed: func(p *pass) error {
		queue := append([]*session(nil), p.sessions...)
		next := churnLive
		touches := 0
		slots := churnOpsPerSecond * p.o.seconds
		for j := 0; j < slots; j++ {
			if j%churnCycle == churnCycle-1 {
				s, err := p.newSession(priu.FamilyLinear, churnN, churnM, churnIters, next)
				if err != nil {
					return err
				}
				next++
				if !p.create(s, true) {
					return fmt.Errorf("creating session %d failed", next-1)
				}
				queue = append(queue, s)
				var oldest *session
				for _, q := range p.sessions {
					if !q.dropped {
						oldest = q
						break
					}
				}
				p.drop(oldest, true)
				queue = without(queue, oldest)
				continue
			}
			s := queue[0]
			queue = append(queue[1:], s)
			if touches%2 == 0 {
				p.get(s, true)
			} else {
				p.streamOnce(s, p.removal(s, 1+p.rng.Intn(churnMaxRows)), true)
			}
			touches++
		}
		return nil
	},
	verify: func(p *pass) { p.verifyFinal() },
	work:   func(p *pass) int { return len(p.timedOps()) },
}

func createSessions(p *pass, family string, count, n, m, iters int) error {
	for i := 0; i < count; i++ {
		s, err := p.newSession(family, n, m, iters, i)
		if err != nil {
			return err
		}
		if !p.create(s, false) {
			return fmt.Errorf("creating session %d failed", i)
		}
	}
	return nil
}

// removal draws the next removal batch for a session and marks its rows.
func (p *pass) removal(s *session, k int) []int {
	rows := p.pickRows(s, k, 0, s.data.N(), nil)
	for _, r := range rows {
		s.chosen[r] = true
	}
	return rows
}

func removals(p *pass, s *session, batches, rows int) [][]int {
	out := make([][]int, batches)
	for i := range out {
		out[i] = p.removal(s, rows)
	}
	return out
}

// candidateSets builds one what-if request: every set starts with the same
// seeded prefix drawn from the lower half of the rows and adds 1–3 distinct
// rows from the upper half, so each set is strictly ascending, the sets
// share the prefix in the planner's tree, and none touches a committed row.
func candidateSets(p *pass, s *session) [][]int {
	half := s.data.N() / 2
	prefix := p.pickRows(s, previewPrefixRows, 0, half, nil)
	used := map[int]bool{}
	sets := make([][]int, previewSetsPerRequest)
	for i := range sets {
		extra := p.pickRows(s, 1+p.rng.Intn(3), half, s.data.N(), used)
		for _, r := range extra {
			used[r] = true
		}
		sets[i] = append(append([]int(nil), prefix...), extra...)
	}
	return sets
}

// whatif runs one what-if request as an operation and checks its result.
func (p *pass) whatif(s *session, sets [][]int, sample bool) {
	var digests []string
	ok := p.do("whatif", true, func(*opSample) error {
		rep, err := p.c.WhatIf(bg, s.id, sets)
		if err != nil {
			return err
		}
		if rep.Summary.Evaluated != len(sets) || len(rep.Outcomes) != len(sets) {
			return fmt.Errorf("session %s: %d of %d what-if sets evaluated", s.id, rep.Summary.Evaluated, len(sets))
		}
		for _, out := range rep.Outcomes {
			if out.Err != nil {
				return out.Err
			}
			digests = append(digests, out.Result.Digest)
		}
		return nil
	})
	if !ok {
		return
	}
	p.sets += len(sets)
	if sample {
		p.previews = append(p.previews, &preview{s: s, sets: sets, digests: digests})
	}
	if p.rec != nil {
		// Traced pass: the twin evaluates the same batch between
		// operations; every digest must match.
		unions := make([][]int, len(sets))
		for i, set := range sets {
			unions[i] = append(append([]int(nil), s.log...), set...)
			sort.Ints(unions[i])
		}
		planner, err := priu.NewWhatIfPlanner(s.twin)
		if err != nil {
			p.problem("twin what-if planner: %v", err)
			return
		}
		start := time.Now()
		res := planner.EvalBatch(unions, p.o.workers)
		ms := elapsedMs(start)
		p.twinEvalMs = append(p.twinEvalMs, ms)
		p.last().twinMs = ms
		p.evalHits += float64(planner.CacheHits())
		p.evalNodes += float64(planner.Nodes())
		p.evalSets += float64(len(sets))
		for i, r := range res {
			if r.Err != nil {
				p.problem("twin what-if: %v", r.Err)
			} else if d := service.ParamDigest(r.Model.Vec()); d != digests[i] {
				p.problem("session %s what-if set %d: served digest %s, twin %s", s.id, i, digests[i], d)
			}
		}
	}
}

func without(queue []*session, s *session) []*session {
	out := queue[:0]
	for _, q := range queue {
		if q != s {
			out = append(out, q)
		}
	}
	return out
}
