package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/binio"
	"repro/internal/dataset"
	"repro/internal/gbm"
	"repro/internal/mat"
)

// Provenance-cache persistence. Capture is the expensive offline phase; in a
// production deployment it runs once per training job and the caches are
// persisted so later deletion requests (possibly in different processes)
// reuse them. The format is a simple versioned little-endian binary layout.
//
// The training dataset itself and the batch schedule seed are NOT stored —
// the loader receives the dataset and rebuilds the schedule from the saved
// config, then verifies a dataset fingerprint so a cache can't silently be
// applied to different data.

const (
	persistMagic   = "PRIU"
	persistVersion = 1

	// maxPersistIterations bounds the decoded iteration count so a hostile
	// or corrupt stream cannot demand absurd allocations (element counts are
	// bounded by binio.MaxElems with chunked reads).
	maxPersistIterations = 1 << 22
)

// writeDense serializes a matrix (nil encoded as -1 rows).
func writeDense(bw *binio.Writer, m *mat.Dense) {
	if m == nil {
		bw.I64(-1)
		return
	}
	r, c := m.Dims()
	bw.I64(int64(r))
	bw.I64(int64(c))
	bw.FloatsN(m.Data())
}

// readDense decodes a matrix written by writeDense, bounded against hostile
// dimension headers.
func readDense(br *binio.Reader) *mat.Dense {
	r := br.I64()
	if r == -1 {
		return nil
	}
	c := br.I64()
	if br.Err != nil || r <= 0 || c <= 0 || r*c > binio.MaxElems {
		br.Fail("core: corrupt matrix dims %dx%d", r, c)
		return nil
	}
	data := br.FloatsN(r * c)
	if br.Err != nil {
		return nil
	}
	return mat.NewDenseData(int(r), int(c), data)
}

// fnvMixer accumulates an FNV-1a hash over 64-bit words.
type fnvMixer uint64

func newFNVMixer() *fnvMixer {
	m := fnvMixer(14695981039346656037)
	return &m
}

func (h *fnvMixer) mix(v uint64) {
	const prime = 1099511628211
	x := uint64(*h)
	for s := 0; s < 64; s += 8 {
		x ^= (v >> s) & 0xff
		x *= prime
	}
	*h = fnvMixer(x)
}

// fingerprint hashes dataset shape and a sample of entries (FNV-1a) so a
// persisted cache is rejected when loaded against different data.
func fingerprint(d *dataset.Dataset) uint64 {
	h := newFNVMixer()
	h.mix(uint64(d.N()))
	h.mix(uint64(d.M()))
	h.mix(uint64(d.Task))
	stride := d.N()*d.M()/1024 + 1
	data := d.X.Data()
	for i := 0; i < len(data); i += stride {
		h.mix(math.Float64bits(data[i]))
	}
	for i := 0; i < len(d.Y); i += d.N()/256 + 1 {
		h.mix(math.Float64bits(d.Y[i]))
	}
	return uint64(*h)
}

// sparseFingerprint is the CSR analogue of fingerprint: dimensions, a sample
// of the stored non-zeros, and a sample of the labels.
func sparseFingerprint(d *dataset.SparseDataset) uint64 {
	h := newFNVMixer()
	rows, cols := d.X.Dims()
	h.mix(uint64(rows))
	h.mix(uint64(cols))
	h.mix(uint64(d.Task))
	h.mix(uint64(d.X.NNZ()))
	for i := 0; i < rows; i += rows/256 + 1 {
		rcols, rvals := d.X.Row(i)
		for k := 0; k < len(rvals); k += len(rvals)/8 + 1 {
			h.mix(uint64(rcols[k]))
			h.mix(math.Float64bits(rvals[k]))
		}
	}
	for i := 0; i < len(d.Y); i += rows/256 + 1 {
		h.mix(math.Float64bits(d.Y[i]))
	}
	return uint64(*h)
}

func writeConfig(bw *binio.Writer, cfg gbm.Config) {
	bw.F64(cfg.Eta)
	bw.F64(cfg.Lambda)
	bw.I64(int64(cfg.BatchSize))
	bw.I64(int64(cfg.Iterations))
	bw.I64(cfg.Seed)
}

func readConfig(br *binio.Reader) gbm.Config {
	return gbm.Config{
		Eta:        br.F64(),
		Lambda:     br.F64(),
		BatchSize:  int(br.I64()),
		Iterations: int(br.I64()),
		Seed:       br.I64(),
	}
}

func writeCache(bw *binio.Writer, c *iterCache) {
	writeDense(bw, c.full)
	writeDense(bw, c.p)
	writeDense(bw, c.v)
}

func readCache(br *binio.Reader) *iterCache {
	return &iterCache{full: readDense(br), p: readDense(br), v: readDense(br)}
}

// WriteTo serializes the linear-regression provenance cache.
func (lp *LinearProvenance) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(persistMagic))
	bw.U64(persistVersion)
	bw.U64(fingerprint(lp.data))
	writeConfig(bw, lp.cfg)
	bw.Bool(lp.useSVD)
	bw.I64(int64(lp.maxRank))
	writeDense(bw, lp.model.W)
	bw.I64(int64(len(lp.caches)))
	for t := range lp.caches {
		writeCache(bw, lp.caches[t])
		bw.Floats(lp.dvecs[t])
	}
	return 0, bw.Flush()
}

// LoadLinearProvenance reads a cache written by WriteTo and re-binds it to
// the dataset it was captured from (verified by fingerprint).
func LoadLinearProvenance(r io.Reader, d *dataset.Dataset) (*LinearProvenance, error) {
	br, cfg, err := readHeader(r, fingerprint(d))
	if err != nil {
		return nil, err
	}
	useSVD := br.Bool()
	maxRank := int(br.I64())
	wMat := readDense(br)
	nCaches := br.I64()
	if br.Err != nil {
		return nil, br.Err
	}
	if nCaches < 0 || int(nCaches) != cfg.Iterations {
		return nil, fmt.Errorf("core: cache count %d does not match iterations %d", nCaches, cfg.Iterations)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		return nil, err
	}
	lp := &LinearProvenance{
		cfg:     cfg,
		sched:   sched,
		data:    d,
		model:   &gbm.Model{Task: dataset.Regression, W: wMat},
		useSVD:  useSVD,
		maxRank: maxRank,
		caches:  make([]*iterCache, nCaches),
		dvecs:   make([][]float64, nCaches),
	}
	for t := int64(0); t < nCaches; t++ {
		lp.caches[t] = readCache(br)
		lp.dvecs[t] = br.Floats()
	}
	if br.Err != nil {
		return nil, br.Err
	}
	return lp, nil
}

// WriteTo serializes the binary-logistic provenance cache.
func (lp *LogisticProvenance) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(persistMagic))
	bw.U64(persistVersion)
	bw.U64(fingerprint(lp.data))
	writeConfig(bw, lp.cfg)
	bw.Bool(lp.useSVD)
	bw.I64(int64(lp.maxRank))
	writeDense(bw, lp.modelL.W)
	writeDense(bw, lp.modelExact.W)
	bw.I64(int64(len(lp.caches)))
	for t := range lp.caches {
		writeCache(bw, lp.caches[t])
		bw.Floats(lp.dvecs[t])
		bw.Floats(lp.aCoef[t])
		bw.Floats(lp.bCoef[t])
	}
	return 0, bw.Flush()
}

// LoadLogisticProvenance reads a cache written by WriteTo. The linearizer is
// only needed for future captures, not updates, so it is not persisted.
func LoadLogisticProvenance(r io.Reader, d *dataset.Dataset) (*LogisticProvenance, error) {
	br, cfg, err := readHeader(r, fingerprint(d))
	if err != nil {
		return nil, err
	}
	useSVD := br.Bool()
	maxRank := int(br.I64())
	wL := readDense(br)
	wExact := readDense(br)
	nCaches := br.I64()
	if br.Err != nil {
		return nil, br.Err
	}
	if nCaches < 0 || int(nCaches) != cfg.Iterations {
		return nil, fmt.Errorf("core: cache count %d does not match iterations %d", nCaches, cfg.Iterations)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		return nil, err
	}
	lp := &LogisticProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelL:     &gbm.Model{Task: dataset.BinaryClassification, W: wL},
		modelExact: &gbm.Model{Task: dataset.BinaryClassification, W: wExact},
		useSVD:     useSVD,
		maxRank:    maxRank,
		caches:     make([]*iterCache, nCaches),
		dvecs:      make([][]float64, nCaches),
		aCoef:      make([][]float64, nCaches),
		bCoef:      make([][]float64, nCaches),
	}
	for t := int64(0); t < nCaches; t++ {
		lp.caches[t] = readCache(br)
		lp.dvecs[t] = br.Floats()
		lp.aCoef[t] = br.Floats()
		lp.bCoef[t] = br.Floats()
	}
	if br.Err != nil {
		return nil, br.Err
	}
	return lp, nil
}

// WriteTo serializes the multinomial provenance cache (per-class iteration
// caches, D-vectors and linearization coefficients).
func (mp *MultinomialProvenance) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(persistMagic))
	bw.U64(persistVersion)
	bw.U64(fingerprint(mp.data))
	writeConfig(bw, mp.cfg)
	bw.Bool(mp.useSVD)
	bw.I64(int64(mp.maxRank))
	bw.I64(int64(mp.q))
	writeDense(bw, mp.modelL.W)
	writeDense(bw, mp.modelExact.W)
	bw.I64(int64(len(mp.caches)))
	for t := range mp.caches {
		for k := 0; k < mp.q; k++ {
			writeCache(bw, mp.caches[t][k])
			bw.Floats(mp.dvecs[t][k])
		}
		bw.Floats(mp.aCoef[t])
		bw.Floats(mp.cCoef[t])
	}
	return 0, bw.Flush()
}

// LoadMultinomialProvenance reads a cache written by WriteTo and re-binds it
// to the dataset it was captured from (verified by fingerprint).
func LoadMultinomialProvenance(r io.Reader, d *dataset.Dataset) (*MultinomialProvenance, error) {
	br, cfg, err := readHeader(r, fingerprint(d))
	if err != nil {
		return nil, err
	}
	useSVD := br.Bool()
	maxRank := int(br.I64())
	q := int(br.I64())
	wL := readDense(br)
	wExact := readDense(br)
	nCaches := br.I64()
	if br.Err != nil {
		return nil, br.Err
	}
	if q < 1 || q != d.Classes {
		return nil, fmt.Errorf("core: cache class count %d does not match dataset's %d", q, d.Classes)
	}
	if nCaches < 0 || int(nCaches) != cfg.Iterations {
		return nil, fmt.Errorf("core: cache count %d does not match iterations %d", nCaches, cfg.Iterations)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		return nil, err
	}
	mp := &MultinomialProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelL:     &gbm.Model{Task: dataset.MultiClassification, W: wL},
		modelExact: &gbm.Model{Task: dataset.MultiClassification, W: wExact},
		useSVD:     useSVD,
		maxRank:    maxRank,
		q:          q,
		caches:     make([][]*iterCache, nCaches),
		dvecs:      make([][][]float64, nCaches),
		aCoef:      make([][]float64, nCaches),
		cCoef:      make([][]float64, nCaches),
	}
	for t := int64(0); t < nCaches; t++ {
		mp.caches[t] = make([]*iterCache, q)
		mp.dvecs[t] = make([][]float64, q)
		for k := 0; k < q; k++ {
			mp.caches[t][k] = readCache(br)
			mp.dvecs[t][k] = br.Floats()
		}
		mp.aCoef[t] = br.Floats()
		mp.cCoef[t] = br.Floats()
	}
	if br.Err != nil {
		return nil, br.Err
	}
	return mp, nil
}

// WriteTo serializes the sparse-logistic provenance cache. Only the
// linearization coefficients are stored (Sec 5.3 keeps no dense factors).
func (sp *SparseLogisticProvenance) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(persistMagic))
	bw.U64(persistVersion)
	bw.U64(sparseFingerprint(sp.data))
	writeConfig(bw, sp.cfg)
	writeDense(bw, sp.modelL.W)
	writeDense(bw, sp.modelExact.W)
	bw.I64(int64(len(sp.aCoef)))
	for t := range sp.aCoef {
		bw.Floats(sp.aCoef[t])
		bw.Floats(sp.bCoef[t])
	}
	return 0, bw.Flush()
}

// LoadSparseLogisticProvenance reads a cache written by WriteTo and re-binds
// it to the sparse dataset it was captured from (verified by fingerprint).
func LoadSparseLogisticProvenance(r io.Reader, d *dataset.SparseDataset) (*SparseLogisticProvenance, error) {
	br, cfg, err := readHeader(r, sparseFingerprint(d))
	if err != nil {
		return nil, err
	}
	wL := readDense(br)
	wExact := readDense(br)
	nCoef := br.I64()
	if br.Err != nil {
		return nil, br.Err
	}
	if nCoef < 0 || int(nCoef) != cfg.Iterations {
		return nil, fmt.Errorf("core: coefficient count %d does not match iterations %d", nCoef, cfg.Iterations)
	}
	sched, err := gbm.NewSchedule(d.N(), cfg)
	if err != nil {
		return nil, err
	}
	sp := &SparseLogisticProvenance{
		cfg:        cfg,
		sched:      sched,
		data:       d,
		modelL:     &gbm.Model{Task: dataset.BinaryClassification, W: wL},
		modelExact: &gbm.Model{Task: dataset.BinaryClassification, W: wExact},
		aCoef:      make([][]float64, nCoef),
		bCoef:      make([][]float64, nCoef),
	}
	for t := int64(0); t < nCoef; t++ {
		sp.aCoef[t] = br.Floats()
		sp.bCoef[t] = br.Floats()
	}
	if br.Err != nil {
		return nil, br.Err
	}
	return sp, nil
}

// readHeader consumes the magic/version/fingerprint/config prefix shared by
// every provenance stream, verifying against the caller's fingerprint.
func readHeader(r io.Reader, wantFP uint64) (*binio.Reader, gbm.Config, error) {
	br := binio.NewReader(r)
	if err := br.Magic(persistMagic); err != nil {
		return nil, gbm.Config{}, fmt.Errorf("core: %w", err)
	}
	if v := br.U64(); v != persistVersion {
		return nil, gbm.Config{}, fmt.Errorf("core: unsupported version %d", v)
	}
	if fp := br.U64(); fp != wantFP {
		return nil, gbm.Config{}, fmt.Errorf("core: cache fingerprint does not match dataset")
	}
	cfg := readConfig(br)
	if br.Err != nil {
		return nil, gbm.Config{}, br.Err
	}
	if cfg.Iterations < 1 || cfg.Iterations > maxPersistIterations {
		return nil, gbm.Config{}, fmt.Errorf("core: persisted iteration count %d out of bounds", cfg.Iterations)
	}
	return br, cfg, nil
}
