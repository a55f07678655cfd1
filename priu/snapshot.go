package priu

import (
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/sparse"
)

// Session snapshots bundle everything needed to resurrect an updater in a
// fresh process: the family name, the training set, the cumulative deletion
// log (so a restored serving session keeps honoring applied deletions), and
// the family's provenance stream (Snapshotter.WriteTo). The provenance
// stream itself carries a dataset fingerprint, so a tampered bundle fails
// closed on load.
//
// Layout (little-endian): magic "PRSN", version, family string, dataset
// (dense or sparse), deletion log, then the provenance bytes to EOF.

const (
	snapshotMagic   = "PRSN"
	snapshotVersion = 1

	snapKindDense  = 0
	snapKindSparse = 1

	// maxSnapshotName bounds decoded name/family strings.
	maxSnapshotName = 1 << 20
)

// WriteSnapshot serializes a self-contained session snapshot with an empty
// deletion log. The updater must implement Snapshotter and the family must
// match the one that captured it (ReadSnapshot restores through the family
// registry).
func WriteSnapshot(w io.Writer, family string, ds TrainingSet, u Updater) error {
	return WriteSessionSnapshot(w, family, ds, u, nil)
}

// WriteSessionSnapshot is WriteSnapshot carrying a cumulative deletion log:
// a restored session replays it so already-honored deletions stay deleted.
func WriteSessionSnapshot(w io.Writer, family string, ds TrainingSet, u Updater, deleted []int) error {
	snap, ok := u.(Snapshotter)
	if !ok {
		return fmt.Errorf("priu: %T does not implement Snapshotter", u)
	}
	if f, found := Lookup(family); !found || f.Restore == nil {
		return fmt.Errorf("priu: family %q cannot be restored from a snapshot", family)
	}
	bw := binio.NewWriter(w)
	bw.Bytes([]byte(snapshotMagic))
	bw.U64(snapshotVersion)
	bw.Str(family)
	switch d := ds.(type) {
	case *dataset.Dataset:
		bw.U64(snapKindDense)
		bw.Str(d.Name)
		bw.U64(uint64(d.Task))
		bw.U64(uint64(d.Classes))
		bw.U64(uint64(d.N()))
		bw.U64(uint64(d.M()))
		bw.FloatsN(d.X.Data())
		bw.Floats(d.Y)
	case *dataset.SparseDataset:
		rows, cols := d.X.Dims()
		bw.U64(snapKindSparse)
		bw.Str(d.Name)
		bw.U64(uint64(d.Task))
		bw.U64(uint64(d.Classes))
		bw.U64(uint64(rows))
		bw.U64(uint64(cols))
		for i := 0; i < rows; i++ {
			rcols, rvals := d.X.Row(i)
			bw.U64(uint64(len(rcols)))
			for k := range rcols {
				bw.U64(uint64(rcols[k]))
				bw.F64(rvals[k])
			}
		}
		bw.Floats(d.Y)
	default:
		return fmt.Errorf("priu: cannot snapshot training set of type %T", ds)
	}
	bw.U64(uint64(len(deleted)))
	for _, i := range deleted {
		bw.U64(uint64(i))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The provenance stream goes last, unframed: it is self-delimiting.
	_, err := snap.WriteTo(w)
	return err
}

// ReadSnapshot restores a session snapshot: the family name, the
// reconstructed training set, and the restored updater. The deletion log is
// discarded; services that must keep honoring applied deletions use
// ReadSessionSnapshot.
func ReadSnapshot(r io.Reader) (family string, ds TrainingSet, u Updater, err error) {
	family, ds, u, _, err = ReadSessionSnapshot(r)
	return family, ds, u, err
}

// ReadSessionSnapshot restores a session snapshot including its cumulative
// deletion log.
func ReadSessionSnapshot(r io.Reader) (family string, ds TrainingSet, u Updater, deleted []int, err error) {
	br := binio.NewReader(r)
	if err := br.Magic(snapshotMagic); err != nil {
		return "", nil, nil, nil, fmt.Errorf("priu: %w", err)
	}
	if v := br.U64(); v != snapshotVersion {
		return "", nil, nil, nil, fmt.Errorf("priu: unsupported snapshot version %d", v)
	}
	family = br.Str(maxSnapshotName)
	kind := br.U64()
	if br.Err != nil {
		return "", nil, nil, nil, br.Err
	}
	switch kind {
	case snapKindDense:
		name := br.Str(maxSnapshotName)
		task := dataset.Task(br.U64())
		classes := int(br.U64())
		n := int(br.U64())
		m := int(br.U64())
		if br.Err != nil {
			return "", nil, nil, nil, br.Err
		}
		if n <= 0 || m <= 0 || int64(n)*int64(m) > binio.MaxElems {
			return "", nil, nil, nil, fmt.Errorf("priu: corrupt snapshot dims %dx%d", n, m)
		}
		data := br.FloatsN(int64(n) * int64(m))
		y := br.Floats()
		if br.Err != nil {
			return "", nil, nil, nil, br.Err
		}
		d := &dataset.Dataset{Name: name, Task: task, Classes: classes, X: mat.NewDenseData(n, m, data), Y: y}
		if err := d.Validate(); err != nil {
			return "", nil, nil, nil, fmt.Errorf("priu: snapshot dataset invalid: %w", err)
		}
		ds = d
	case snapKindSparse:
		name := br.Str(maxSnapshotName)
		task := dataset.Task(br.U64())
		classes := int(br.U64())
		rows := int(br.U64())
		cols := int(br.U64())
		if br.Err != nil {
			return "", nil, nil, nil, br.Err
		}
		if rows <= 0 || cols <= 0 || rows > binio.MaxElems || cols > binio.MaxElems {
			return "", nil, nil, nil, fmt.Errorf("priu: corrupt snapshot dims %dx%d", rows, cols)
		}
		var trips []sparse.Triplet
		for i := 0; i < rows; i++ {
			nnz := int(br.U64())
			if br.Err != nil {
				return "", nil, nil, nil, br.Err
			}
			if nnz < 0 || nnz > cols {
				return "", nil, nil, nil, fmt.Errorf("priu: corrupt snapshot row nnz %d", nnz)
			}
			for k := 0; k < nnz; k++ {
				col := int(br.U64())
				val := br.F64()
				trips = append(trips, sparse.Triplet{Row: i, Col: col, Val: val})
			}
		}
		y := br.Floats()
		if br.Err != nil {
			return "", nil, nil, nil, br.Err
		}
		x, err := sparse.NewCSR(rows, cols, trips)
		if err != nil {
			return "", nil, nil, nil, fmt.Errorf("priu: snapshot matrix invalid: %w", err)
		}
		// SparseDataset has no Validate; check the label column here so a
		// corrupt snapshot cannot produce a dataset that panics on Update.
		if len(y) != rows {
			return "", nil, nil, nil, fmt.Errorf("priu: snapshot has %d labels for %d rows", len(y), rows)
		}
		ds = &dataset.SparseDataset{Name: name, Task: task, Classes: classes, X: x, Y: y}
	default:
		return "", nil, nil, nil, fmt.Errorf("priu: unknown snapshot dataset kind %d", kind)
	}
	nDel := br.U64()
	if br.Err != nil || nDel > binio.MaxElems {
		br.Fail("priu: corrupt deletion-log length %d", nDel)
		return "", nil, nil, nil, br.Err
	}
	n := ds.N()
	for i := uint64(0); i < nDel; i++ {
		idx := br.U64()
		if br.Err != nil {
			return "", nil, nil, nil, br.Err
		}
		if idx >= uint64(n) {
			return "", nil, nil, nil, fmt.Errorf("priu: deletion-log index %d out of range [0,%d)", idx, n)
		}
		deleted = append(deleted, int(idx))
	}
	u, err = ReadFrom(family, br.R, ds)
	if err != nil {
		return "", nil, nil, nil, err
	}
	return family, ds, u, deleted, nil
}
