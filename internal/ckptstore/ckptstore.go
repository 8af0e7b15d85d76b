// Package ckptstore is a crash-safe, generational, on-disk checkpoint
// store for long-running discovery jobs — the durable half of the answer
// to batch-system walltime limits (the paper notes Summit capped
// sub-100-node jobs at two hours, Sec. IV-A).
//
// Durability contract (see docs/ROBUSTNESS.md):
//
//   - Every Save is atomic: the payload is written to a temp file in the
//     same directory, fsynced, renamed into place, and the directory is
//     fsynced. A crash at any instant leaves either the previous
//     generations intact or the new generation fully visible — never a
//     half-written visible checkpoint. Stale temp files from torn renames
//     are swept by Open.
//   - Every payload is CRC32-framed (Castagnoli) under a versioned magic
//     header, so torn writes and bit rot are detected on read, not
//     silently replayed.
//   - The store retains the newest Retain generations. Load returns the
//     newest generation that decodes cleanly, skipping (and reporting)
//     corrupt ones, so a bad newest file degrades to the previous
//     checkpoint instead of an aborted resume.
//
// The store is payload-agnostic: callers hand it bytes (in this repo, a
// cover.Checkpoint encoding) and get bytes back.
//
// The package also holds the Journal (journal.go): one append-only file
// of records in the same CRC framing, for many small durable writes —
// the discovery daemon's job specs and results — that would each cost a
// temp file, two fsyncs, a rename and a directory fsync through
// WriteFileAtomic. Appends share fsyncs (group commit), a torn tail is
// truncated at replay and never hides a later record, and Compact
// rewrites the journal through WriteFileAtomic.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/failpoint"
)

// Typed errors. Load and decode failures wrap these so callers can
// distinguish "nothing to resume" from "something to resume is damaged".
var (
	// ErrNoCheckpoint means the store holds no generations at all.
	ErrNoCheckpoint = errors.New("ckptstore: no checkpoint")
	// ErrCorrupt means a checkpoint file failed CRC, framing, or header
	// validation.
	ErrCorrupt = errors.New("ckptstore: corrupt checkpoint")
)

const (
	// magic starts every checkpoint file.
	magic = "MHCK"
	// formatVersion is the on-disk framing version.
	formatVersion = 1
	// headerSize is magic + version.
	headerSize = len(magic) + 4
	// frameSize is the per-record length + CRC prefix.
	frameSize = 8
	// MaxPayload bounds a single record so a corrupt length field cannot
	// drive a multi-gigabyte allocation.
	MaxPayload = 1 << 30

	// fileExt names checkpoint generations; tempExt marks in-flight
	// writes that a crash may strand.
	fileExt = ".mhc"
	tempExt = ".tmp"
	filePat = "ckpt-%09d" + fileExt
)

// Options configures a Store.
type Options struct {
	// Retain is how many newest generations survive pruning; 0 means
	// DefaultRetain.
	Retain int
}

// DefaultRetain keeps three generations: the incumbent, its predecessor
// (the corruption fallback), and one more for torn-prune safety.
const DefaultRetain = 3

// Store is a directory of numbered checkpoint generations. It is safe
// for concurrent use; Save calls serialize.
type Store struct {
	dir    string
	retain int

	mu      sync.Mutex
	nextGen uint64
}

// Open creates (if needed) the directory, sweeps temp files stranded by
// torn renames, and positions the generation counter after the newest
// existing file.
func Open(dir string, opt Options) (*Store, error) {
	if opt.Retain == 0 {
		opt.Retain = DefaultRetain
	}
	if opt.Retain < 1 {
		return nil, fmt.Errorf("ckptstore: Retain must be positive, got %d", opt.Retain)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	s := &Store{dir: dir, retain: opt.Retain}
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	if n := len(gens); n > 0 {
		s.nextGen = gens[n-1] + 1
	} else {
		s.nextGen = 1
	}
	// A temp file is an interrupted Save: the rename never happened, so
	// the generation it was building does not exist. Sweep it.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), tempExt) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Generations lists the on-disk generation numbers in ascending order,
// valid or not.
func (s *Store) Generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if g, ok := parseGen(e.Name()); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// parseGen extracts the generation number from a checkpoint file name.
func parseGen(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "ckpt-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, fileExt)
	if !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// path returns the file path of a generation.
func (s *Store) path(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf(filePat, gen))
}

// Save atomically persists a payload as the next generation and prunes
// generations beyond the retain horizon. It returns the generation
// number written. Failpoints: ckptstore/write, ckptstore/sync,
// ckptstore/rename.
func (s *Store) Save(payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("ckptstore: payload %d bytes exceeds MaxPayload", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextGen
	if err := WriteFileAtomic(s.path(gen), Encode(payload), 0o644); err != nil {
		return 0, fmt.Errorf("ckptstore: generation %d: %w", gen, err)
	}
	s.nextGen = gen + 1
	s.prune(gen)
	return gen, nil
}

// WriteFileAtomic publishes data at path with the store's full durability
// protocol: write to a same-directory temp file, fsync it, rename into
// place, fsync the directory. A crash at any instant leaves either the old
// path contents or the new — never a torn file. It is the one blessed way
// to write a checkpoint-path file outside the store proper (the durawrite
// analyzer flags raw writes in those packages), so crash-safety lives in
// exactly one place. Failpoints: ckptstore/write, ckptstore/sync,
// ckptstore/rename.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + tempExt
	if err := failpoint.Check("ckptstore/write"); err != nil {
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	if err := syncFile(tmp); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := failpoint.Check("ckptstore/rename"); err != nil {
		// Simulated crash between fsync and rename: the temp file stays
		// behind, exactly as a real kill would leave it.
		return fmt.Errorf("publishing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncFile fsyncs one file. Failpoint: ckptstore/sync.
func syncFile(path string) error {
	if err := failpoint.Check("ckptstore/sync"); err != nil {
		return fmt.Errorf("syncing %s: %w", filepath.Base(path), err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a rename inside it is durable.
// Best-effort: some filesystems reject directory fsync outright (EINVAL),
// and by this point the renamed file's own bytes are already fsynced — the
// worst a lost directory entry costs is falling back one generation.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()  //lint:allow durawrite best-effort directory fsync; EINVAL on some filesystems and the file itself is already durable
	_ = d.Close() //lint:allow durawrite read-only directory handle; Close after a best-effort Sync has no write to lose
}

// IsDiskFull reports whether an error is an out-of-space failure — a
// real ENOSPC from the filesystem or an injected one from the
// "diskfull" failpoint action. Service layers use it to enter a
// degraded (stop-admitting, keep-draining) state instead of failing
// the job whose write hit the wall.
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// PruneKeep removes all but the newest keep generations, regardless of
// the store's Retain setting. It is the disk-budget GC's hook for
// reclaiming space from a live store: under pressure the accountant
// shrinks retained history first, before touching anything a resume
// would need. keep is clamped to at least 1 — the newest generation is
// never removed. It returns the number of bytes reclaimed.
func (s *Store) PruneKeep(keep int) (int64, error) {
	if keep < 1 {
		keep = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, err := s.Generations()
	if err != nil {
		return 0, err
	}
	var freed int64
	for i := 0; i+keep < len(gens); i++ {
		p := s.path(gens[i])
		if st, err := os.Stat(p); err == nil {
			freed += st.Size()
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return freed, fmt.Errorf("ckptstore: pruning generation %d: %w", gens[i], err)
		}
	}
	return freed, nil
}

// prune removes generations older than the retain horizon. Best-effort:
// a prune failure never fails the Save that triggered it.
func (s *Store) prune(newest uint64) {
	gens, err := s.Generations()
	if err != nil {
		return
	}
	for _, g := range gens {
		if g+uint64(s.retain) <= newest {
			_ = os.Remove(s.path(g))
		}
	}
}

// CorruptGeneration records a generation Load skipped.
type CorruptGeneration struct {
	// Generation is the skipped generation number.
	Generation uint64
	// Err is why it failed to decode.
	Err error
}

// Snapshot is a successful Load: the newest valid payload plus the
// provenance a resuming caller should report.
type Snapshot struct {
	// Payload is the stored bytes.
	Payload []byte
	// Generation is the generation the payload came from.
	Generation uint64
	// Skipped lists newer generations that were corrupt, newest first.
	Skipped []CorruptGeneration
}

// Load returns the newest generation that decodes cleanly. Corrupt newer
// generations are skipped and reported in the snapshot. With no
// generations on disk it returns ErrNoCheckpoint; with generations on
// disk but none valid it returns an error wrapping ErrCorrupt.
// Failpoint: ckptstore/load.
func (s *Store) Load() (*Snapshot, error) {
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		return nil, ErrNoCheckpoint
	}
	var skipped []CorruptGeneration
	for i := len(gens) - 1; i >= 0; i-- {
		payload, err := s.LoadGeneration(gens[i])
		if err == nil {
			return &Snapshot{Payload: payload, Generation: gens[i], Skipped: skipped}, nil
		}
		skipped = append(skipped, CorruptGeneration{Generation: gens[i], Err: err})
	}
	return nil, fmt.Errorf("ckptstore: all %d generations invalid (newest: %v): %w",
		len(gens), skipped[0].Err, ErrCorrupt)
}

// maxFileSize bounds a single-record checkpoint file: header, one frame,
// one MaxPayload record. A file larger than this cannot decode to a legal
// single Save, so reading is capped here rather than trusting the file
// length — a corrupt (or hostile) multi-gigabyte file costs one bounded
// read, not an unbounded allocation.
const maxFileSize = int64(headerSize+frameSize) + MaxPayload

// LoadGeneration reads and validates one specific generation.
func (s *Store) LoadGeneration(gen uint64) ([]byte, error) {
	if err := failpoint.Check("ckptstore/load"); err != nil {
		return nil, fmt.Errorf("ckptstore: reading generation %d: %w", gen, err)
	}
	f, err := os.Open(s.path(gen))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxFileSize+1))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: %w", err)
	}
	if int64(len(data)) > maxFileSize {
		return nil, fmt.Errorf("ckptstore: generation %d: %w: file exceeds %d bytes", gen, ErrCorrupt, maxFileSize)
	}
	payload, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: generation %d: %w", gen, err)
	}
	return payload, nil
}

// crcTable returns the table of the Castagnoli polynomial, the standard
// for storage checksums. It is built on first use, not at package init:
// building it costs a fraction of a millisecond, and a daemon started on
// a fresh data directory checks no checksum before its first record.
var crcTable = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// Encode frames a payload: magic, format version, then one
// length+CRC-framed record. (Decode accepts any number of records and
// concatenates them; the Journal streams appends in the same framing.)
func Encode(payload []byte) []byte {
	buf := make([]byte, 0, headerSize+frameSize+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	return appendFrame(buf, payload)
}

// appendFrame appends one record to buf: its length, its CRC, its bytes.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable()))
	return append(buf, payload...)
}

// frameHeader decodes a record's length and CRC prefix.
func frameHeader(b []byte) (size, sum uint32) {
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint32(b[4:8])
}

// Decode validates a framed checkpoint file and returns the concatenated
// record payloads. Every failure wraps ErrCorrupt. Decode never
// allocates beyond the input size, so a hostile length field cannot
// balloon memory.
func Decode(data []byte) ([]byte, error) {
	if err := checkHeader(data, magic); err != nil {
		return nil, err
	}
	rest := data[headerSize:]
	if len(rest) == 0 {
		return nil, fmt.Errorf("%w: no records", ErrCorrupt)
	}
	var payload []byte
	for n := 0; len(rest) > 0; n++ {
		if len(rest) < frameSize {
			return nil, fmt.Errorf("%w: record %d: truncated frame (%d trailing bytes)", ErrCorrupt, n, len(rest))
		}
		size, sum := frameHeader(rest)
		if size > MaxPayload {
			return nil, fmt.Errorf("%w: record %d: length %d exceeds MaxPayload", ErrCorrupt, n, size)
		}
		body := rest[frameSize:]
		if uint64(len(body)) < uint64(size) {
			return nil, fmt.Errorf("%w: record %d: truncated payload (%d of %d bytes)", ErrCorrupt, n, len(body), size)
		}
		record := body[:size]
		if got := crc32.Checksum(record, crcTable()); got != sum {
			return nil, fmt.Errorf("%w: record %d: CRC %08x, want %08x", ErrCorrupt, n, got, sum)
		}
		payload = append(payload, record...)
		rest = body[size:]
	}
	return payload, nil
}

// checkHeader validates a file's magic and format version.
func checkHeader(data []byte, want string) error {
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d-byte file is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:len(want)]) != want {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(want)])
	}
	if ver := binary.LittleEndian.Uint32(data[len(want):headerSize]); ver != formatVersion {
		return fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, ver, formatVersion)
	}
	return nil
}
