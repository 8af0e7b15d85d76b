// Package multihit is a fixture for the consumer-side rules: raw writes
// are flagged with the fact-carrying writer names, write handles must not
// defer their Close, and reads must be bounded.
package multihit

import (
	"io"
	"os"

	"ckptstore"
)

// saveRaw bypasses the publish protocol; the diagnostic names the imported
// fact-carrying writer.
func saveRaw(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `raw os\.WriteFile on the checkpoint path; route the write through ckptstore's durable writers \(WriteFileAtomic, Journal\.Append, Journal\.Commit\)`
}

// saveCreate opens a write handle and defers the Close, discarding the
// flush error.
func saveCreate(path string, data []byte) error {
	f, err := os.Create(path) // want `raw os\.Create on the checkpoint path`
	if err != nil {
		return err
	}
	defer f.Close() // want `deferred Close on a write handle discards the flush error`
	_, err = f.Write(data)
	return err
}

// save routes through the durable writer: clean.
func save(path string, data []byte) error {
	return ckptstore.WriteFileAtomic(path, data)
}

// loadAll reads without a bound.
func loadAll(path string) ([]byte, error) {
	return os.ReadFile(path) // want `unbounded os\.ReadFile on the checkpoint path`
}

// loadBounded caps the read: clean.
func loadBounded(f *os.File, max int64) ([]byte, error) {
	return io.ReadAll(io.LimitReader(f, max))
}

// loadLegacy keeps a justified unbounded read under a suppression.
func loadLegacy(path string) ([]byte, error) {
	return os.ReadFile(path) //lint:allow durawrite fixture asserts suppression keeps this silent
}
