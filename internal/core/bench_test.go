package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gbm"
)

// BenchmarkLogisticOptStream streams 200 cumulative 10-row deletion batches
// through LogisticOpt.Update on an n=8000, m=100 capture (τ=200, B=200), the
// shape of a deletion session whose log grows batch by batch. Each pass
// starts from an empty row-projection memo. It reports the mean ms/batch
// over the stream and over its first and last 20 batches, so growth in |R|
// shows as the gap between the two.
//
//	go test -bench=LogisticOptStream -benchtime=1x -run='^$' ./internal/core
func BenchmarkLogisticOptStream(b *testing.B) {
	const (
		n, m            = 8000, 100
		batches, perRow = 200, 10
		window          = 20
	)
	d, err := dataset.GenerateBinary("stream", n, m, 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gbm.Config{Eta: 0.01, Lambda: 0.05, BatchSize: 200, Iterations: 200, Seed: 1}
	sched, err := gbm.NewSchedule(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lo, err := CaptureLogisticOpt(d, cfg, sched, testLin, Options{})
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewSource(2)).Perm(n)
	log := make([]int, 0, batches*perRow)
	for i := 0; i < batches; i++ {
		batch := perm[i*perRow : (i+1)*perRow]
		sort.Ints(batch)
		log = append(log, batch...)
	}

	var total, first, last time.Duration
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		lo.proj = newRowProj(lo.eig, d.X, lo.aStar)
		for i := 0; i < batches; i++ {
			start := time.Now()
			if _, err := lo.Update(log[:(i+1)*perRow]); err != nil {
				b.Fatal(err)
			}
			el := time.Since(start)
			total += el
			if i < window {
				first += el
			}
			if i >= batches-window {
				last += el
			}
		}
	}
	ms := func(d time.Duration, k int) float64 {
		return float64(d) / float64(time.Millisecond) / float64(b.N*k)
	}
	b.ReportMetric(ms(total, batches), "ms/batch")
	b.ReportMetric(ms(first, window), "first20_ms/batch")
	b.ReportMetric(ms(last, window), "last20_ms/batch")
}
