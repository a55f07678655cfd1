package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/priu"
	"repro/priu/client"
	"repro/priu/service"
)

// pass is one execution of a workload's fixed operation list against one
// server: the real priuserve (untraced) or the in-process wiring (traced).
type pass struct {
	o    options
	spec *workloadSpec
	c    *client.Client
	rec  *recorder // nil in the untraced pass
	rng  *rand.Rand

	sessions []*session // every session created, in creation order

	ops       []*opSample // every operation, set-up included
	attempted int
	failed    int
	problems  []string

	setupS   float64
	timedDur time.Duration
	rows     int // rows acknowledged in the timed phase
	sets     int // what-if sets evaluated in the timed phase
	relErr   []float64
	previews []*preview    // sampled what-if requests, re-evaluated by the twin
	served   []servedModel // sampled GET results, re-computed by the twin
	gets     int           // timed GETs

	// Untraced pass: server counters over the timed phase and peak RSS.
	delta counters
	rssMB float64

	// Traced pass: twin and priu-layer timings taken between operations.
	twinUpdateMs  []float64
	twinCaptureMs []float64
	twinEvalMs    []float64
	retrainMs     []float64
	finalUpdateMs []float64
	evalHits      float64
	evalNodes     float64
	evalSets      float64
	decodeMs      []float64
	snapBytes     []float64
}

// opSample is one operation of the workload.
type opSample struct {
	kind   string  // delete | whatif | get | create | drop
	timed  bool    // inside the timed phase
	ms     float64 // client-side latency
	wireMs float64 // server-reported update_seconds / capture_seconds
	twinMs float64 // twin time of the same core call (traced pass)
	info   *opInfo // traced pass: the operation's spans
}

// session is the client's record of one server session and its twin.
type session struct {
	id      string
	family  string
	data    *priu.Dataset
	cfg     priu.Config
	log     []int        // acknowledged cumulative removal log, in order
	chosen  map[int]bool // rows the schedule has already removed
	dropped bool
	twin    priu.Updater
}

func newPass(o options, spec *workloadSpec, c *client.Client, rec *recorder) *pass {
	return &pass{o: o, spec: spec, c: c, rec: rec, rng: rand.New(rand.NewSource(mix(o.seed, 0x5eed)))}
}

// mix derives independent seeds from the workload seed.
func mix(seed int64, salt int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(salt)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x & math.MaxInt64)
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// do runs one operation, timing it from the client side. Failed operations
// count against the run and are never timed.
func (p *pass) do(kind string, timed bool, fn func(s *opSample) error) bool {
	s := &opSample{kind: kind, timed: timed}
	var oi *opInfo
	if p.rec != nil {
		oi = p.rec.begin(kind)
	}
	start := time.Now()
	err := fn(s)
	s.ms = elapsedMs(start)
	if p.rec != nil {
		p.rec.end(oi)
		s.info = oi
	}
	p.attempted++
	if err != nil {
		p.failed++
		p.problem("%s: %v", kind, err)
		return false
	}
	p.ops = append(p.ops, s)
	return true
}

// timedOps returns the operations of the timed phase.
func (p *pass) timedOps() []*opSample {
	var out []*opSample
	for _, s := range p.ops {
		if s.timed {
			out = append(out, s)
		}
	}
	return out
}

// last returns the most recent operation.
func (p *pass) last() *opSample { return p.ops[len(p.ops)-1] }

// newSession generates a session's training set from the workload seed.
func (p *pass) newSession(family string, n, m, iters int, idx int) (*session, error) {
	seed := mix(p.o.seed, int64(idx)+1)
	var (
		d   *priu.Dataset
		err error
	)
	switch family {
	case priu.FamilyLinear, priu.FamilyLinearOpt:
		d, err = priu.GenerateRegression("bench", n, m, 0.1, seed)
	default:
		d, err = priu.GenerateBinary("bench", n, m, 1.0, seed)
	}
	if err != nil {
		return nil, err
	}
	return &session{
		family: family,
		data:   d,
		cfg: priu.Config{
			Eta: 0.01, Lambda: 0.05, BatchSize: 200, Iterations: iters,
			Seed: seed, Mode: priu.ModeAuto,
		},
		chosen: map[int]bool{},
	}, nil
}

// create registers the session on the server (JSON upload plus capture).
func (p *pass) create(s *session, timed bool) bool {
	features := make([][]float64, s.data.N())
	for i := range features {
		features[i] = s.data.X.Row(i)
	}
	req := service.CreateSessionRequest{
		Family: s.family, Features: features, Labels: s.data.Y,
		Eta: s.cfg.Eta, Lambda: s.cfg.Lambda, BatchSize: s.cfg.BatchSize,
		Iterations: s.cfg.Iterations, Seed: s.cfg.Seed,
	}
	ok := p.do("create", timed, func(op *opSample) error {
		resp, err := p.c.CreateSession(bg, req)
		if err != nil {
			return err
		}
		s.id = resp.SessionID
		op.wireMs = resp.CaptureSeconds * 1e3
		return nil
	})
	if ok {
		p.sessions = append(p.sessions, s)
		if p.rec != nil {
			// Traced pass: capture the twin now, between operations, to
			// time the core capture on the same data and config.
			start := time.Now()
			if err := p.captureTwin(s); err != nil {
				p.problem("twin capture: %v", err)
			}
			p.twinCaptureMs = append(p.twinCaptureMs, elapsedMs(start))
		}
	}
	return ok
}

func (p *pass) captureTwin(s *session) error {
	if s.twin != nil {
		return nil
	}
	u, err := priu.TrainConfig(s.family, s.data, s.cfg)
	if err != nil {
		return err
	}
	s.twin = u
	return nil
}

// pickRows draws k distinct rows from [lo, hi) that the schedule has not
// removed from the session and that are not excluded, sorted ascending.
func (p *pass) pickRows(s *session, k, lo, hi int, exclude map[int]bool) []int {
	rows := make([]int, 0, k)
	taken := map[int]bool{}
	for len(rows) < k {
		r := lo + p.rng.Intn(hi-lo)
		if s.chosen[r] || taken[r] || exclude[r] {
			continue
		}
		taken[r] = true
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return rows
}

// acknowledge appends an acknowledged batch to the session's log and checks
// the server's running total against it.
func (p *pass) acknowledge(s *session, rows []int, res *service.DeletionResult, timed bool) {
	s.log = append(s.log, rows...)
	if res.TotalDeleted != len(s.log) {
		p.problem("session %s: total_deleted %d after batch, acknowledged %d", s.id, res.TotalDeleted, len(s.log))
	}
	if timed {
		p.rows += len(rows)
	}
	if p.rec != nil && timed {
		// Traced pass: the twin's update on the same cumulative log, timed
		// between operations, must match the served digest bit for bit.
		start := time.Now()
		m, err := s.twin.Update(s.log)
		ms := elapsedMs(start)
		p.twinUpdateMs = append(p.twinUpdateMs, ms)
		p.last().twinMs = ms
		if err != nil {
			p.problem("twin update: %v", err)
		} else if d := service.ParamDigest(m.Vec()); d != res.Digest {
			p.problem("session %s batch %d: served digest %s, twin %s", s.id, res.Batch, res.Digest, d)
		}
	}
}

// streamBatches sends batches on one deletion stream, one operation each.
func (p *pass) streamBatches(s *session, batches [][]int, timed bool) error {
	if len(batches) == 0 {
		return nil
	}
	var traceID string
	if p.rec != nil {
		traceID = p.rec.reserveTrace()
	}
	st, err := p.c.StreamDeletions(bg, s.id)
	if err != nil {
		return err
	}
	defer st.Close()
	var infos []*opInfo
	for _, rows := range batches {
		var res *service.DeletionResult
		ok := p.do("delete", timed, func(op *opSample) error {
			var err error
			res, err = st.Send(rows)
			if err != nil {
				return err
			}
			op.wireMs = res.UpdateSeconds * 1e3
			return nil
		})
		if !ok {
			return fmt.Errorf("session %s: deletion batch failed", s.id)
		}
		infos = append(infos, p.last().info)
		p.acknowledge(s, rows, res, timed)
	}
	if p.rec != nil {
		p.rec.bindStream(traceID, infos)
	}
	return nil
}

// streamOnce opens a deletion stream, sends one batch and closes it, all as
// one operation (the cold-churn deletion: restore, update, delta spill).
func (p *pass) streamOnce(s *session, rows []int, timed bool) {
	var res *service.DeletionResult
	ok := p.do("delete", timed, func(op *opSample) error {
		st, err := p.c.StreamDeletions(bg, s.id)
		if err != nil {
			return err
		}
		res, err = st.Send(rows)
		if cerr := st.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		op.wireMs = res.UpdateSeconds * 1e3
		return nil
	})
	if ok {
		p.acknowledge(s, rows, res, timed)
	}
}

// getSampleEvery keeps every n-th timed GET's parameters for verification.
const getSampleEvery = 8

func (p *pass) get(s *session, timed bool) {
	var params []float64
	ok := p.do("get", timed, func(*opSample) error {
		resp, err := p.c.GetSession(bg, s.id)
		if err != nil {
			return err
		}
		if resp.TotalDeleted != len(s.log) {
			return fmt.Errorf("session %s: total_deleted %d, acknowledged %d", s.id, resp.TotalDeleted, len(s.log))
		}
		params = resp.Parameters
		return nil
	})
	if ok && timed {
		p.gets++
		if p.gets%getSampleEvery == 0 {
			p.served = append(p.served, servedModel{s: s, log: append([]int(nil), s.log...), params: params})
		}
	}
}

// servedModel is a model a timed GET returned, with the log it reflects.
type servedModel struct {
	s      *session
	log    []int
	params []float64
}

func (p *pass) drop(s *session, timed bool) {
	if p.do("drop", timed, func(*opSample) error { return p.c.DeleteSession(bg, s.id) }) {
		s.dropped = true
	}
}

// verifyFinal checks every session after the timed phase, and the sampled
// GET results: a served model must equal its twin's update over the
// acknowledged log bit for bit, and its distance to a retrain is recorded;
// a dropped session must still answer 404.
func (p *pass) verifyFinal() {
	for _, s := range p.sessions {
		resp, err := p.c.GetSession(bg, s.id)
		if s.dropped {
			if !client.IsNotFound(err) {
				p.problem("dropped session %s answered %v, want 404", s.id, err)
			}
			continue
		}
		if err != nil {
			p.problem("final GET %s: %v", s.id, err)
			continue
		}
		if resp.TotalDeleted != len(s.log) {
			p.problem("session %s: total_deleted %d, acknowledged %d", s.id, resp.TotalDeleted, len(s.log))
		}
		p.verifyServed(servedModel{s: s, log: s.log, params: resp.Parameters})
	}
	for _, m := range p.served {
		p.verifyServed(m)
	}
}

func (p *pass) verifyServed(m servedModel) {
	if err := p.captureTwin(m.s); err != nil {
		p.problem("twin capture %s: %v", m.s.id, err)
		return
	}
	// A session without deletions serves its captured model.
	want := m.s.twin.Model()
	if len(m.log) > 0 {
		start := time.Now()
		var err error
		want, err = m.s.twin.Update(m.log)
		p.finalUpdateMs = append(p.finalUpdateMs, elapsedMs(start))
		if err != nil {
			p.problem("twin update %s: %v", m.s.id, err)
			return
		}
	}
	if got, w := service.ParamDigest(m.params), service.ParamDigest(want.Vec()); got != w {
		p.problem("session %s after %d deletions: served digest %s, twin %s", m.s.id, len(m.log), got, w)
	}
	if len(m.log) > 0 {
		p.recordRelErr(m.s, m.params, m.log)
	}
}

// recordRelErr appends ‖w − w_BaseL‖₂ / ‖w_BaseL‖₂, where w_BaseL retrains
// from scratch over the surviving rows.
func (p *pass) recordRelErr(s *session, w []float64, removed []int) {
	start := time.Now()
	base, err := priu.RetrainConfig(s.family, s.data, s.cfg, removed)
	p.retrainMs = append(p.retrainMs, elapsedMs(start))
	if err != nil {
		p.problem("retrain %s: %v", s.id, err)
		return
	}
	b := base.Vec()
	if len(b) != len(w) {
		p.problem("session %s: %d served parameters, retrain has %d", s.id, len(w), len(b))
		return
	}
	var num, den float64
	for i := range b {
		num += (w[i] - b[i]) * (w[i] - b[i])
		den += b[i] * b[i]
	}
	p.relErr = append(p.relErr, math.Sqrt(num/den))
}

// preview is one sampled what-if request kept for verification.
type preview struct {
	s       *session
	sets    [][]int
	digests []string
}

// verifyPreviews re-evaluates the sampled what-if requests in process: the
// served digests must equal EvalBatch's, and the first set of each sample
// is compared against a retrain.
func (p *pass) verifyPreviews() {
	for _, pv := range p.previews {
		if err := p.captureTwin(pv.s); err != nil {
			p.problem("twin capture %s: %v", pv.s.id, err)
			return
		}
		planner, err := priu.NewWhatIfPlanner(pv.s.twin)
		if err != nil {
			p.problem("what-if planner: %v", err)
			return
		}
		unions := make([][]int, len(pv.sets))
		for i, set := range pv.sets {
			unions[i] = append(append([]int(nil), pv.s.log...), set...)
			sort.Ints(unions[i])
		}
		res := planner.EvalBatch(unions, p.o.workers)
		for i, r := range res {
			if r.Err != nil {
				p.problem("twin what-if: %v", r.Err)
				continue
			}
			if d := service.ParamDigest(r.Model.Vec()); d != pv.digests[i] {
				p.problem("session %s what-if set %d: served digest %s, twin %s", pv.s.id, i, pv.digests[i], d)
			}
		}
		if res[0].Err == nil {
			p.recordRelErr(pv.s, res[0].Model.Vec(), unions[0])
		}
	}
}

// timedKind returns the latencies of the timed operations of some kinds.
func (p *pass) timedKind(kinds ...string) []float64 {
	var out []float64
	for _, s := range p.timedOps() {
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s.ms)
			}
		}
	}
	return out
}
