package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/priu"
	"repro/priu/client"
	"repro/priu/obs"
	"repro/priu/service"
	"repro/priu/store"
)

// runPlain is the untraced pass: a fresh priuserve process on a fresh
// store directory, driven through priu/client.
func runPlain(o options, spec *workloadSpec, dir string) (*pass, error) {
	// Each set-up starts a fresh server on a fresh store directory; the
	// timed phase runs on the last one.
	var (
		srv    *serverProc
		p      *pass
		setups []float64
	)
	defer func() { srv.stop() }()
	for i := 0; i < max(spec.setups, 1); i++ {
		srv.stop()
		start := time.Now()
		var err error
		if srv, err = startServer(o, filepath.Join(dir, strconv.Itoa(i)), spec.maxSessions); err != nil {
			return nil, err
		}
		p = newPass(o, spec, client.New(srv.base), nil)
		if err := spec.setup(p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := srv.waitQuiet(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p.setupS = quantile(setups, 0.5)

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := spec.timed(p); err != nil {
		return nil, err
	}
	p.timedDur = time.Since(t)
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	p.delta = after.minus(before)
	if p.rssMB, err = procPeakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}

	// The miss ratio guard: on cold-churn every touch restores exactly once;
	// elsewhere nothing restores.
	touches := 0
	for _, s := range p.timedOps() {
		if s.kind == "get" || s.kind == "delete" || s.kind == "whatif" {
			touches++
		}
	}
	want := spec.wantMiss * float64(touches)
	if got := p.delta["priu_store_restores_total"]; got != want {
		p.problem("store restores in the timed phase: %v, want %v (miss ratio %v over %d touches)", got, want, spec.wantMiss, touches)
	}
	spec.verify(p)
	return p, nil
}

// inproc is the traced pass's server: the same service.Server and
// store.Tiered wiring as priuserve, hosted in this process with a timing
// wrapper around the store and the handler.
type inproc struct {
	tiered *store.Tiered
	tracer *obs.Tracer
	hs     *http.Server
	base   string
	served chan error
}

func startInproc(o options, spec *workloadSpec, dir string, rec *recorder) (*inproc, error) {
	gcInterval, err := time.ParseDuration(o.spillGCInterval)
	if err != nil {
		return nil, fmt.Errorf("--spill-gc-interval: %w", err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1 << 16)
	tracer.SetSlowOp(time.Duration(o.slowOpMs) * time.Millisecond)
	// The same options and defaults priuserve applies for the flags it is
	// started with.
	mem := store.NewMemory(store.WithMaxSessions(spec.maxSessions), store.WithMaxBytes(0))
	tiered, err := store.NewTiered(dir, mem,
		store.WithSpillOnEvict(true),
		store.WithSpillMaxBytes(0),
		store.WithWriteBehind(256, 1),
		store.WithSpillCoalesce(1, 50*time.Millisecond),
		store.WithCompaction(8),
		store.WithSpillGC(time.Hour, gcInterval),
		store.WithMetrics(store.NewTierMetrics(reg)),
	)
	if err != nil {
		return nil, err
	}
	srv := service.NewServer(
		service.WithStore(&timedStore{Tiered: tiered, mem: mem, rec: rec}),
		service.WithMaxSessions(spec.maxSessions),
		service.WithMaxBytes(0),
		service.WithMaxRemovalsPerBatch(0),
		service.WithWhatIfWorkers(o.workers),
		service.WithWhatIfLimit(8),
		service.WithAuth(service.AuthOff, nil),
		service.WithObservability(reg, tracer),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = tiered.Close()
		return nil, err
	}
	ip := &inproc{
		tiered: tiered,
		tracer: tracer,
		hs:     &http.Server{Handler: handlerSpans(rec, srv.Handler())},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { ip.served <- ip.hs.Serve(ln) }()
	return ip, nil
}

func (ip *inproc) stop() {
	_ = ip.hs.Close()
	<-ip.served
	_ = ip.tiered.Close()
}

// runTraced is the traced pass: the same operation list against the
// in-process wiring, with the twin timing each core call between
// operations.
func runTraced(o options, spec *workloadSpec, dir string) (*pass, error) {
	rec := newRecorder()
	ip, err := startInproc(o, spec, dir, rec)
	if err != nil {
		return nil, err
	}
	defer ip.stop()
	hc := &http.Client{Transport: &traceTransport{rec: rec, next: http.DefaultTransport}}
	p := newPass(o, spec, client.New(ip.base, client.WithHTTPClient(hc)), rec)
	start := time.Now()
	if err := spec.setup(p); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ip.tiered.Flush()
	p.setupS = time.Since(start).Seconds()
	t := time.Now()
	if err := spec.timed(p); err != nil {
		return nil, err
	}
	p.timedDur = time.Since(t)

	for _, s := range p.timedOps() {
		if s.info.touched && s.info.missed != (spec.wantMiss == 1) {
			p.problem("%s op %d: store miss %v, want miss ratio %v", s.kind, s.info.id, s.info.missed, spec.wantMiss)
		}
	}
	p.decodeSnapshots()
	spec.verify(p)
	rec.importServer(ip.tracer)
	return p, nil
}

// decodeSnapshots exports up to four live sessions and times
// priu.ReadSessionSnapshot on each, the decode share of a cold restore.
func (p *pass) decodeSnapshots() {
	n := 0
	for i := len(p.sessions) - 1; i >= 0 && n < 4; i-- {
		s := p.sessions[i]
		if s.dropped {
			continue
		}
		n++
		var buf bytes.Buffer
		if _, err := p.c.SnapshotTo(bg, s.id, &buf); err != nil {
			p.problem("snapshot %s: %v", s.id, err)
			continue
		}
		p.snapBytes = append(p.snapBytes, float64(buf.Len()))
		start := time.Now()
		_, _, _, deleted, err := priu.ReadSessionSnapshot(bytes.NewReader(buf.Bytes()))
		p.decodeMs = append(p.decodeMs, elapsedMs(start))
		if err != nil {
			p.problem("decoding snapshot %s: %v", s.id, err)
		} else if len(deleted) != len(s.log) {
			p.problem("snapshot %s carries %d deletions, acknowledged %d", s.id, len(deleted), len(s.log))
		}
	}
}

// endToEnd is the untraced pass's metric set.
func (p *pass) endToEnd() map[string]metric {
	lat := p.timedKind(p.spec.primary...)
	return map[string]metric{
		"setup_s":       {p.setupS, "s"},
		"op_p50_ms":     {quantile(lat, 0.5), "ms"},
		"op_p90_ms":     {quantile(lat, 0.9), "ms"},
		"work_per_s":    {float64(p.spec.work(p)) / p.timedDur.Seconds(), "1/s"},
		"model_rel_err": {mean(p.relErr), "ratio"},
		"server_rss_mb": {p.rssMB, "MB"},
	}
}

// perLayer is the traced run's metric set: timings from the traced pass,
// counts from the untraced pass's /metrics and /proc deltas.
func perLayer(plain, traced *pass) map[string]metric {
	ops := float64(len(plain.timedOps()))
	d := plain.delta
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	timedOps := map[int]bool{}
	for _, s := range traced.timedOps() {
		timedOps[s.info.id] = true
	}
	overhead := func(kind string, sub func(*opSample) float64) float64 {
		var v []float64
		for _, s := range traced.ops {
			if s.kind == kind {
				v = append(v, s.ms-sub(s))
			}
		}
		return quantile(v, 0.5)
	}
	wire := func(s *opSample) float64 { return s.wireMs }
	twin := func(s *opSample) float64 { return s.twinMs }
	rec := traced.rec
	gets := rec.spanDurations("store.get", timedOps)
	touched, missed := 0, 0
	for _, s := range traced.timedOps() {
		if s.info.touched {
			touched++
			if s.info.missed {
				missed++
			}
		}
	}
	updates := traced.twinUpdateMs
	if len(updates) == 0 {
		updates = traced.finalUpdateMs
	}
	m := map[string]metric{
		"service.delete.overhead_ms":     {overhead("delete", wire), "ms"},
		"service.create.overhead_ms":     {overhead("create", wire), "ms"},
		"service.whatif.overhead_ms":     {overhead("whatif", twin), "ms"},
		"store.get_p50_ms":               {quantile(gets, 0.5), "ms"},
		"store.get_p90_ms":               {quantile(gets, 0.9), "ms"},
		"store.put_ms":                   {quantile(rec.spanDurations("store.put", nil), 0.5), "ms"},
		"store.delete_ms":                {quantile(rec.spanDurations("store.delete", nil), 0.5), "ms"},
		"store.miss_ratio":               {ratio(float64(missed), float64(touched)), "ratio"},
		"store.evictions_per_op":         {ratio(d["priu_store_budget_evictions_total"], ops), "count"},
		"store.spills_per_op":            {ratio(d["priu_store_spills_total"], ops), "count"},
		"store.sync_spills_per_op":       {ratio(d["priu_store_spills_total"]-d["priu_store_write_behind_spills_total"], ops), "count"},
		"store.delta_spill_ratio":        {ratio(d["priu_store_delta_spills_total"], d["priu_store_spills_total"]), "ratio"},
		"store.compactions_per_kop":      {1000 * ratio(d["priu_store_compactions_total"], ops), "count"},
		"store.stale_spills_per_op":      {ratio(d["priu_store_stale_spills_total"], ops), "count"},
		"store.disk_write_bytes_per_row": {ratio(d["write_bytes"], float64(plain.rows)), "B"},
		"priu.snapshot_decode_ms":        {quantile(traced.decodeMs, 0.5), "ms"},
		"priu.snapshot_bytes":            {quantile(traced.snapBytes, 0.5), "B"},
		"core.update_p50_ms":             {quantile(updates, 0.5), "ms"},
		"core.update_p90_ms":             {quantile(updates, 0.9), "ms"},
		"core.capture_ms":                {quantile(traced.twinCaptureMs, 0.5), "ms"},
		"core.retrain_ms":                {quantile(traced.retrainMs, 0.5), "ms"},
		"core.speedup_vs_retrain":        {ratio(quantile(traced.retrainMs, 0.5), quantile(traced.finalUpdateMs, 0.5)), "ratio"},
		"core.whatif_eval_ms":            {quantile(traced.twinEvalMs, 0.5), "ms"},
		"core.whatif_hit_ratio":          {ratio(traced.evalHits, traced.evalSets), "rows"},
		"core.whatif_nodes_per_set":      {ratio(traced.evalNodes, traced.evalSets), "count"},
		"par.dispatches_per_op":          {ratio(d["priu_par_dispatches_total"], ops), "count"},
		"server.cpu_ms_per_op":           {1000 * ratio(d["cpu_seconds"], ops), "ms"},
		"trace.overhead_ratio": {ratio(quantile(traced.timedKind(traced.spec.primary...), 0.5),
			quantile(plain.timedKind(plain.spec.primary...), 0.5)), "ratio"},
	}
	for _, route := range handlerRoutes {
		m["service.handler_ms."+route] = metric{quantile(rec.spanDurations("service."+route, nil), 0.5), "ms"}
	}
	for _, kind := range opKinds {
		m["unattributed_ms."+kind] = metric{traced.attribution(kind).unattributed, "ms"}
	}
	return m
}

var (
	handlerRoutes = []string{"create", "get", "deletions", "whatif", "drop"}
	opKinds       = []string{"delete", "whatif", "get", "create"}
)

// attribution is the mean latency of one timed operation kind and its
// split by layer; unattributed is what the layers do not account for, so
// the parts sum to the latency exactly.
type attribution struct {
	n                                           int
	latency, service, store, core, unattributed float64
}

func (p *pass) attribution(kind string) attribution {
	var a attribution
	for _, s := range p.timedOps() {
		if s.kind != kind {
			continue
		}
		lt := p.rec.layers(s.info)
		a.n++
		a.latency += s.ms
		a.service += lt.service
		a.store += lt.store
		a.core += lt.core
	}
	if a.n == 0 {
		return a
	}
	n := float64(a.n)
	a.latency /= n
	a.service /= n
	a.store /= n
	a.core /= n
	a.unattributed = a.latency - a.service - a.store - a.core
	return a
}

// printEndToEnd prints the untraced pass's metrics by operation, each with
// its unit and sample count (the JSON line carries the gated subset).
func printEndToEnd(o options, p *pass) {
	fmt.Printf("# %s seed=%d: %d operations attempted, %d failed (error_ratio %.4g), timed phase %.3fs\n",
		o.workload, o.seed, p.attempted, p.failed, ratioOf(p.failed, p.attempted), p.timedDur.Seconds())
	row := func(name, unit string, v float64, n int) {
		fmt.Printf("  %-20s %12.4f %-6s n=%d\n", name, v, unit, n)
	}
	row("setup_s", "s", p.setupS, 1)
	for _, kind := range []string{"delete", "whatif", "get", "create"} {
		lat := p.timedKind(kind)
		if len(lat) == 0 {
			continue
		}
		row(kind+"_p50_ms", "ms", quantile(lat, 0.5), len(lat))
		if kind != "create" {
			row(kind+"_p90_ms", "ms", quantile(lat, 0.9), len(lat))
		}
	}
	secs := p.timedDur.Seconds()
	if p.rows > 0 {
		row("delete_rows_per_s", "1/s", float64(p.rows)/secs, p.rows)
	}
	if p.sets > 0 {
		row("whatif_sets_per_s", "1/s", float64(p.sets)/secs, p.sets)
	}
	row("model_rel_err", "ratio", mean(p.relErr), len(p.relErr))
	row("server_rss_mb", "MB", p.rssMB, 1)
	row("error_ratio", "ratio", ratioOf(p.failed, p.attempted), p.attempted)
}

// printLayerTable prints the per-layer attribution of each timed operation
// kind, the tracing overhead and the per-layer metrics.
func printLayerTable(o options, plain, traced *pass, m map[string]metric, spanFile string) {
	fmt.Printf("# %s seed=%d traced: mean ms per operation (service = handler self time)\n", o.workload, o.seed)
	fmt.Printf("  %-8s %6s %10s %10s %10s %10s %14s\n", "op", "n", "latency", "service", "store", "core", "unattributed")
	for _, kind := range opKinds {
		a := traced.attribution(kind)
		if a.n == 0 {
			continue
		}
		fmt.Printf("  %-8s %6d %10.3f %10.3f %10.3f %10.3f %14.3f\n", kind, a.n, a.latency, a.service, a.store, a.core, a.unattributed)
	}
	for _, kind := range opKinds {
		tl, pl := traced.timedKind(kind), plain.timedKind(kind)
		if len(tl) == 0 || len(pl) == 0 {
			continue
		}
		fmt.Printf("  tracing overhead %s: traced p50 %.3f ms / untraced p50 %.3f ms = %.3f (p99 %.3f / %.3f, p999 %.3f / %.3f)\n",
			kind, quantile(tl, 0.5), quantile(pl, 0.5), quantile(tl, 0.5)/quantile(pl, 0.5),
			quantile(tl, 0.99), quantile(pl, 0.99), quantile(tl, 0.999), quantile(pl, 0.999))
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("  spans: %s\n", spanFile)
}

func ratioOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
