// Package ckptstore is a fixture standing in for the real store: the
// publish function and the journal's Append and Commit export the
// DurableWriter fact that the multihit and service fixtures' diagnostics
// name, and raw write APIs inside this package are the implementation
// rather than a violation.
package ckptstore

import (
	"io"
	"os"
)

// WriteFileAtomic is the blessed publish: temp file, fsync, rename.
func WriteFileAtomic(path string, data []byte) error { // wantfact `durawrite: durable-writer`
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	f, err := os.OpenFile(tmp, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Journal stands in for the append-only job journal.
type Journal struct {
	f *os.File
}

// Ticket names the fsync that covers an appended record.
type Ticket struct{ end int64 }

// Append writes a record: a durable writer by its file write.
func (j *Journal) Append(rec []byte) (Ticket, error) { // wantfact `durawrite: durable-writer`
	n, err := j.f.Write(rec)
	return Ticket{end: int64(n)}, err
}

// Commit reaches its fsync through a helper: a durable writer by the
// fixpoint.
func (j *Journal) Commit(t Ticket) error { // wantfact `durawrite: durable-writer`
	return j.flush()
}

func (j *Journal) flush() error {
	return j.f.Sync()
}

// Size only reads: not a durable writer, so dropping its error is not
// flagged.
func (j *Journal) Size() (int64, error) {
	st, err := j.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// load is bounded: ReadAll through LimitReader passes, and a deferred Close
// on a read-only handle is idiomatic.
func load(path string, max int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(io.LimitReader(f, max))
}

// sloppySync drops errors even though this is the durability layer: rules 2
// and 3 apply inside ckptstore too.
func sloppySync(f *os.File, path string) ([]byte, error) {
	f.Sync()                 // want `Sync error discarded on the checkpoint path`
	_ = f.Close()            // want `Close error discarded on the checkpoint path`
	return os.ReadFile(path) // want `unbounded os\.ReadFile on the checkpoint path`
}
