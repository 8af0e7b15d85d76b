package ckptstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/failpoint"
)

// journalMagic starts a journal file. The header (magic + format
// version) and every record frame are the checkpoint file's framing; a
// distinct magic keeps a journal from passing for a checkpoint.
const journalMagic = "MHJL"

// Journal is one append-only file of CRC-framed records for many small
// durable writes, each of which would otherwise cost a temp file, two
// fsyncs, a rename and a directory fsync (WriteFileAtomic).
//
// A record is durable once Commit returns nil for its Ticket. Commits are
// grouped: a committer whose record is not yet covered waits for the
// fsync in progress, if any, and then starts one itself, so one fsync
// covers every record appended before it began.
//
// Failure rules. A failed or torn write is cut off at once (or, should
// that truncation fail too, before the next append), so a torn frame is
// always the file's tail and never hides a later record. A failed fsync
// cuts the file back to the last synced offset the same way, and every
// record after that offset reports the error to its committer: its bytes
// may never reach the disk. Replay (OpenJournal) stops at the first frame
// that is truncated or fails its CRC and truncates the file there.
//
// The file is created by the first Append, so opening a journal that does
// not exist yet writes nothing. The zero Journal is not usable; open one
// with OpenJournal. Failpoints: ckptstore/write and ckptstore/sync (at
// the points WriteFileAtomic checks them), and ckptstore/journal-torn
// (half a frame reaches the file, then the injected error or panic).
type Journal struct {
	path string

	mu   sync.Mutex
	cond sync.Cond
	f    *os.File // nil until the first Append opens or creates the file
	// tail is the end of the last whole record; synced is the end of the
	// last record an fsync covered.
	tail, synced int64
	// dirty means bytes past tail may be on disk (a failed or torn write,
	// or records a failed fsync lost) and a cut is still owed: the failure
	// path tries it at once, and the next Append retries it first.
	dirty bool
	// dirSync asks the next fsync to fsync the directory too, so the entry
	// of a file this journal created is durable.
	dirSync bool
	// open collects the records appended since the last fsync began.
	open    *batch
	syncing bool
	closed  bool

	appends, syncs uint64
}

// batch is the set of records one fsync covers.
type batch struct {
	done bool
	err  error
}

// Ticket names the group commit that covers one appended record; pass it
// to Commit.
type Ticket struct{ b *batch }

// JournalStats is a journal's size and activity since it was opened.
type JournalStats struct {
	// Bytes is the journal's length: header plus whole records.
	Bytes int64
	// Appends counts records written; Syncs counts fsyncs that covered
	// them. Appends/Syncs is the records each group commit carried.
	Appends, Syncs uint64
}

// OpenJournal replays the journal at path, calling fn with each valid
// record in order, and returns the journal positioned after the last
// one. A torn tail is truncated away. fn must not retain its argument; an
// error from fn aborts the open. A missing file is an empty journal. A
// temp file a crashed Compact left behind is removed.
func OpenJournal(path string, fn func(rec []byte) error) (*Journal, error) {
	j := &Journal{path: path, open: &batch{}}
	j.cond.L = &j.mu
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		// Compact runs only on an existing journal, so no temp file of
		// its can be left either: opening costs this one lookup.
		return j, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	defer f.Close()
	if err := os.Remove(path + tempExt); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	valid, err := replay(bufio.NewReaderSize(f, 64<<10), st.Size(), fn)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: journal %s: %w", filepath.Base(path), err)
	}
	if valid < st.Size() {
		if err := os.Truncate(path, valid); err != nil {
			return nil, fmt.Errorf("ckptstore: cutting the torn tail of %s: %w", filepath.Base(path), err)
		}
	}
	j.tail, j.synced = valid, valid
	return j, nil
}

// replay reads size bytes of journal from r, calling fn with each valid
// record (valid only during the call), and returns the length of the
// valid prefix: the header and every whole record before the first torn
// or corrupt frame, or 0 when even the header is incomplete. A bad header
// is an error wrapping ErrCorrupt. Record buffers are bounded by the
// bytes left, so a hostile length field cannot drive the allocation past
// the input.
func replay(r io.Reader, size int64, fn func(rec []byte) error) (int64, error) {
	var hdr [headerSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return 0, err
	}
	if n < headerSize {
		// A crash while the first append created the file: an empty
		// journal, as long as the bytes are a prefix of a header.
		if !bytes.HasPrefix(journalHeader(), hdr[:n]) {
			return 0, fmt.Errorf("%w: %d-byte file is not a journal header", ErrCorrupt, n)
		}
		return 0, nil
	}
	if err := checkHeader(hdr[:], journalMagic); err != nil {
		return 0, err
	}
	var frame [frameSize]byte
	var buf []byte
	off := int64(headerSize)
	for size-off >= frameSize {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return off, err
		}
		n, sum := frameHeader(frame[:])
		if n > MaxPayload || int64(n) > size-off-frameSize {
			break // torn: the frame promises more bytes than are left
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		rec := buf[:n]
		if _, err := io.ReadFull(r, rec); err != nil {
			return off, err
		}
		if crc32.Checksum(rec, crcTable()) != sum {
			break
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += frameSize + int64(n)
	}
	return off, nil
}

// journalHeader is the bytes a journal file starts with.
func journalHeader() []byte {
	return binary.LittleEndian.AppendUint32([]byte(journalMagic), formatVersion)
}

// Append writes records at the journal's tail in one write: a failed
// Append leaves none of them. They are durable once Commit returns nil for
// the returned Ticket; until then a crash may lose them, but never a
// record committed before them.
func (j *Journal) Append(recs ...[]byte) (Ticket, error) {
	for _, rec := range recs {
		if len(rec) > MaxPayload {
			return Ticket{}, fmt.Errorf("ckptstore: record %d bytes exceeds MaxPayload", len(rec))
		}
	}
	if err := failpoint.Check("ckptstore/write"); err != nil {
		return Ticket{}, fmt.Errorf("appending to %s: %w", filepath.Base(j.path), err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Ticket{}, errJournalClosed
	}
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return Ticket{}, fmt.Errorf("ckptstore: %w", err)
		}
		j.f = f
	}
	if err := j.cutLocked(); err != nil {
		return Ticket{}, err
	}
	var buf []byte
	if j.tail == 0 {
		buf = journalHeader()
		j.dirSync = true
	}
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	// Until the write is whole, bytes past tail may be torn; a panic
	// unwinding from here leaves the flag for the next Append.
	j.dirty = true
	err := j.tornWrite(buf)
	if err == nil {
		if _, err = j.f.WriteAt(buf, j.tail); err != nil {
			err = fmt.Errorf("ckptstore: appending to %s: %w", filepath.Base(j.path), err)
		}
	}
	if err != nil {
		_ = j.cutLocked() // if the cut fails too, the next Append retries it
		return Ticket{}, err
	}
	j.dirty = false
	j.tail += int64(len(buf))
	j.appends += uint64(len(recs))
	return Ticket{b: j.open}, nil
}

// tornWrite is the ckptstore/journal-torn failpoint: when it fires, half
// the frame reaches the file before the injected error or panic, as a
// crash in the middle of the write would leave it.
func (j *Journal) tornWrite(buf []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			_, _ = j.f.WriteAt(buf[:len(buf)/2], j.tail) // the panic is the failure reported
			panic(r)
		}
	}()
	if err = failpoint.Check("ckptstore/journal-torn"); err != nil {
		_, _ = j.f.WriteAt(buf[:len(buf)/2], j.tail) // the injected error is the failure reported
		return fmt.Errorf("appending to %s: %w", filepath.Base(j.path), err)
	}
	return nil
}

// cutLocked truncates the file back to tail when a failure may have left
// bytes past it. It leaves dirty set when the truncation fails, so the
// next Append retries it before writing.
func (j *Journal) cutLocked() error {
	if !j.dirty || j.f == nil {
		return nil
	}
	if err := j.f.Truncate(j.tail); err != nil {
		return fmt.Errorf("ckptstore: cutting %s back to %d bytes: %w", filepath.Base(j.path), j.tail, err)
	}
	j.dirty = false
	return nil
}

// Commit returns once an fsync covering the ticket's record has finished,
// starting one when none is running. It returns the fsync's error when the
// record was lost to a failed fsync.
func (j *Journal) Commit(t Ticket) error {
	if t.b == nil {
		return fmt.Errorf("ckptstore: Commit of a ticket no Append returned")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for !t.b.done {
		if j.closed {
			return errJournalClosed
		}
		if j.syncing {
			j.cond.Wait()
			continue
		}
		j.flushLocked()
	}
	return t.b.err
}

// flushLocked fsyncs every record written so far as one group commit.
// j.mu is held on entry and on return but released for the fsync, so
// appenders keep writing into the next group meanwhile.
func (j *Journal) flushLocked() {
	b, end, dirSync := j.open, j.tail, j.dirSync
	j.open, j.syncing = &batch{}, true
	err := errors.New("ckptstore: journal fsync panicked")
	j.mu.Unlock()
	defer func() {
		// Deferred so that an injected panic still releases the
		// committers waiting on this group before it unwinds.
		j.mu.Lock()
		j.syncing = false
		if err == nil {
			j.synced, b.done = end, true
			if dirSync {
				j.dirSync = false
			}
			j.syncs++
		} else {
			j.failLocked(b, err)
		}
		j.cond.Broadcast()
	}()
	err = j.fsync(dirSync)
}

// fsync makes the journal's written bytes durable. Failpoint:
// ckptstore/sync.
func (j *Journal) fsync(dirSync bool) error {
	if err := failpoint.Check("ckptstore/sync"); err != nil {
		return fmt.Errorf("syncing %s: %w", filepath.Base(j.path), err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckptstore: syncing %s: %w", filepath.Base(j.path), err)
	}
	if dirSync {
		syncDir(filepath.Dir(j.path))
	}
	return nil
}

// failLocked handles a failed fsync of group b. Its records and those
// appended since it began may never reach the disk: they are cut off, so
// a restart cannot replay a record whose committer was told it failed,
// and their committers get the error.
func (j *Journal) failLocked(b *batch, err error) {
	b.done, b.err = true, err
	j.open.done, j.open.err = true, err
	j.open = &batch{}
	j.tail, j.dirty = j.synced, true
	_ = j.cutLocked() // if the cut fails too, the next Append retries it
}

// Compact atomically replaces the journal with the given records through
// WriteFileAtomic, dropping every record they supersede. A crash at any
// step leaves either the old journal or the new one whole. Compact waits
// for a running fsync; records appended but not yet committed are
// dropped, so callers compact before they append.
func (j *Journal) Compact(records [][]byte) error {
	buf := journalHeader()
	for _, rec := range records {
		if len(rec) > MaxPayload {
			return fmt.Errorf("ckptstore: record %d bytes exceeds MaxPayload", len(rec))
		}
		buf = appendFrame(buf, rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	if err := WriteFileAtomic(j.path, buf, 0o644); err != nil {
		return fmt.Errorf("ckptstore: compacting %s: %w", filepath.Base(j.path), err)
	}
	err := j.closeLocked()
	j.tail, j.synced, j.dirty = int64(len(buf)), int64(len(buf)), false
	return err
}

// Close waits for a running fsync and closes the file. Records appended
// but never committed may or may not survive.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncing {
		j.cond.Wait()
	}
	j.closed = true
	return j.closeLocked()
}

var errJournalClosed = errors.New("ckptstore: journal closed")

// closeLocked closes the file handle, if one is open.
func (j *Journal) closeLocked() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Stats snapshots the journal's size and counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Bytes: j.tail, Appends: j.appends, Syncs: j.syncs}
}
