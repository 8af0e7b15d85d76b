// Package service is a fixture for rule 2 on durable writers: a dropped
// error from the journal's Append or Commit is a record the caller may
// report as durable although it never landed.
package service

import "ckptstore"

// appendDropped discards Append's error with a bare call.
func appendDropped(j *ckptstore.Journal, rec []byte) {
	j.Append(rec) // want `error from durable writer Journal\.Append discarded on the checkpoint path`
}

// tupleDropped keeps the ticket and blanks the error.
func tupleDropped(j *ckptstore.Journal, rec []byte) ckptstore.Ticket {
	t, _ := j.Append(rec) // want `error from durable writer Journal\.Append discarded`
	return t
}

// commitDropped blanks Commit's error.
func commitDropped(j *ckptstore.Journal, t ckptstore.Ticket) {
	_ = j.Commit(t) // want `error from durable writer Journal\.Commit discarded`
}

// commitDeferred defers Commit, so its error goes nowhere.
func commitDeferred(j *ckptstore.Journal, t ckptstore.Ticket) {
	defer j.Commit(t) // want `error from durable writer Journal\.Commit discarded`
}

// publishDropped drops the rename publish's error.
func publishDropped(path string, data []byte) {
	_ = ckptstore.WriteFileAtomic(path, data) // want `error from durable writer WriteFileAtomic discarded`
}

// committed checks both: clean.
func committed(j *ckptstore.Journal, rec []byte) error {
	t, err := j.Append(rec)
	if err != nil {
		return err
	}
	return j.Commit(t)
}

// sizeDropped drops the error of a method that writes nothing: clean.
func sizeDropped(j *ckptstore.Journal) int64 {
	n, _ := j.Size()
	return n
}

// commitAllowed keeps a justified drop under a suppression.
func commitAllowed(j *ckptstore.Journal, t ckptstore.Ticket) {
	_ = j.Commit(t) //lint:allow durawrite fixture asserts suppression keeps this silent
}
