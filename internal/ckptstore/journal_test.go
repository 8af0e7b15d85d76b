package ckptstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/failpoint"
)

// appendCommit appends one record and waits for it to be durable.
func appendCommit(t *testing.T, j *Journal, rec string) {
	t.Helper()
	tk, err := j.Append([]byte(rec))
	if err != nil {
		t.Fatalf("Append(%q): %v", rec, err)
	}
	if err := j.Commit(tk); err != nil {
		t.Fatalf("Commit(%q): %v", rec, err)
	}
}

// reopen closes j (a no-op when it is closed) and replays its file,
// returning the journal and the records it holds.
func reopen(t *testing.T, j *Journal) (*Journal, []string) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var recs []string
	nj, err := OpenJournal(j.path, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return nj, recs
}

func openEmpty(t *testing.T) *Journal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"), func([]byte) error {
		t.Fatal("a fresh journal replayed a record")
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return j
}

func equalRecords(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

func TestJournalAppendCommitReplay(t *testing.T) {
	j := openEmpty(t)
	if _, err := os.Stat(j.path); !os.IsNotExist(err) {
		t.Fatalf("opening a missing journal created it: stat err = %v", err)
	}
	for _, r := range []string{"one", "", "three"} {
		appendCommit(t, j, r)
	}
	st := j.Stats()
	if st.Appends != 3 || st.Syncs != 3 {
		t.Fatalf("stats %+v, want 3 appends and 3 syncs", st)
	}
	if fi, err := os.Stat(j.path); err != nil || fi.Size() != st.Bytes {
		t.Fatalf("file size %v (%v), want %d", fi, err, st.Bytes)
	}
	j, recs := reopen(t, j)
	equalRecords(t, recs, "one", "", "three")
	// Appends continue after the replayed records.
	appendCommit(t, j, "four")
	_, recs = reopen(t, j)
	equalRecords(t, recs, "one", "", "three", "four")
}

// TestJournalGroupCommit: concurrent committers share fsyncs, and every
// committed record replays exactly once.
func TestJournalGroupCommit(t *testing.T) {
	defer failpoint.DisableAll()
	if err := failpoint.Enable("ckptstore/sync", "delay(20ms)"); err != nil {
		t.Fatal(err)
	}
	j := openEmpty(t)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := j.Append([]byte(fmt.Sprintf("rec-%02d", i)))
			if err == nil {
				err = j.Commit(tk)
			}
			if err != nil {
				t.Errorf("record %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appends != n || st.Syncs >= n {
		t.Fatalf("stats %+v: %d appends should share fewer than %d fsyncs", st, n, n)
	}
	t.Logf("%d appends, %d fsyncs", st.Appends, st.Syncs)
	_, recs := reopen(t, j)
	seen := map[string]int{}
	for _, r := range recs {
		seen[r]++
	}
	for i := 0; i < n; i++ {
		if c := seen[fmt.Sprintf("rec-%02d", i)]; c != 1 {
			t.Fatalf("record %d replayed %d times", i, c)
		}
	}
}

// TestJournalTornTailTruncated: bytes after the last whole record (a
// crash mid-append) are cut at open, and appends continue after them.
func TestJournalTornTailTruncated(t *testing.T) {
	j := openEmpty(t)
	appendCommit(t, j, "kept")
	whole := j.Stats().Bytes
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	torn := appendFrame(nil, []byte("torn record"))
	for _, cut := range []int{1, frameSize, len(torn) - 1} {
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		nj, recs := reopen(t, j)
		equalRecords(t, recs, "kept")
		if fi, err := os.Stat(j.path); err != nil || fi.Size() != whole {
			t.Fatalf("cut %d: file %v (%v) after replay, want %d bytes", cut, fi, err, whole)
		}
		j = nj
	}
	appendCommit(t, j, "after")
	_, recs := reopen(t, j)
	equalRecords(t, recs, "kept", "after")
}

// TestJournalTornFailpoint: an injected torn append reports failure. With
// the error action the journal cuts the half frame at once; with the
// panic action (a crash mid-write) it is left on disk and the next append
// cuts it. Either way the torn frame hides no later record.
func TestJournalTornFailpoint(t *testing.T) {
	defer failpoint.DisableAll()
	for _, tc := range []struct {
		action string
		left   bool // torn bytes remain on disk after the failed append
	}{{"error@2", false}, {"panic@2", true}} {
		t.Run(tc.action, func(t *testing.T) {
			j := openEmpty(t)
			if err := failpoint.Enable("ckptstore/journal-torn", tc.action); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Disable("ckptstore/journal-torn")
			appendCommit(t, j, "first")
			before := j.Stats().Bytes
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						if !failpoint.IsPanic(r) {
							panic(r)
						}
						err = errors.New("panicked")
					}
				}()
				_, err = j.Append([]byte("torn"))
				return err
			}()
			if err == nil {
				t.Fatal("the torn append reported success")
			}
			fi, serr := os.Stat(j.path)
			if serr != nil {
				t.Fatal(serr)
			}
			if left := fi.Size() > before; left != tc.left {
				t.Fatalf("file is %d bytes after the torn append (%d before); torn bytes left = %v, want %v",
					fi.Size(), before, left, tc.left)
			}
			appendCommit(t, j, "third")
			_, recs := reopen(t, j)
			equalRecords(t, recs, "first", "third")
		})
	}
}

// TestJournalFailedSyncLosesUnsynced: a failed fsync reports the error to
// the records it covered, cuts them off before the next append, and
// keeps every record synced before it.
func TestJournalFailedSyncLosesUnsynced(t *testing.T) {
	defer failpoint.DisableAll()
	j := openEmpty(t)
	appendCommit(t, j, "durable")
	synced := j.Stats().Bytes
	if err := failpoint.Enable("ckptstore/sync", "error@1"); err != nil {
		t.Fatal(err)
	}
	a, err := j.Append([]byte("lost-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := j.Append([]byte("lost-b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(a); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Commit after a failed fsync = %v, want the injected error", err)
	}
	if err := j.Commit(b); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("second record of the failed group: Commit = %v, want the injected error", err)
	}
	// The lost records are cut at once: a restart cannot replay them.
	if fi, err := os.Stat(j.path); err != nil || fi.Size() != synced {
		t.Fatalf("file %v (%v) after the failed fsync, want %d bytes", fi, err, synced)
	}
	appendCommit(t, j, "after")
	_, recs := reopen(t, j)
	equalRecords(t, recs, "durable", "after")
}

// TestJournalWriteFailpoints: the ckptstore/write failpoint fails an
// append before it writes anything; a disk-full injection is detectable.
func TestJournalWriteFailpoints(t *testing.T) {
	defer failpoint.DisableAll()
	j := openEmpty(t)
	if err := failpoint.Enable("ckptstore/write", "diskfull@1"); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("x")); !IsDiskFull(err) {
		t.Fatalf("Append under diskfull = %v, want a disk-full error", err)
	}
	if _, err := os.Stat(j.path); !os.IsNotExist(err) {
		t.Fatalf("a failed first append created the file: %v", err)
	}
	appendCommit(t, j, "y")
	_, recs := reopen(t, j)
	equalRecords(t, recs, "y")
}

// TestJournalBadHeaderIsCorrupt: a file that is not a journal is an
// error, not an empty journal — its records would otherwise be lost.
func TestJournalBadHeaderIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	for _, data := range [][]byte{[]byte("XX"), Encode([]byte("a checkpoint"))} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenJournal(path, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenJournal(%q) = %v, want ErrCorrupt", data, err)
		}
	}
}

// TestJournalCompactCrashAtEachStep: a compaction that dies at its write,
// fsync or rename leaves the old journal whole (and its temp file is
// swept at the next open); one that completes leaves only the given
// records.
func TestJournalCompactCrashAtEachStep(t *testing.T) {
	defer failpoint.DisableAll()
	for _, step := range []string{"ckptstore/write", "ckptstore/sync", "ckptstore/rename"} {
		t.Run(step, func(t *testing.T) {
			j := openEmpty(t)
			for _, r := range []string{"a1", "b1", "a2", "b2"} {
				appendCommit(t, j, r)
			}
			if err := failpoint.Enable(step, "error"); err != nil {
				t.Fatal(err)
			}
			if err := j.Compact([][]byte{[]byte("a2"), []byte("b2")}); err == nil {
				t.Fatal("Compact reported success through an injected failure")
			}
			failpoint.Disable(step)
			j, recs := reopen(t, j)
			equalRecords(t, recs, "a1", "b1", "a2", "b2")
			if _, err := os.Stat(j.path + tempExt); !os.IsNotExist(err) {
				t.Fatalf("compaction temp file survived the reopen: %v", err)
			}
			if err := j.Compact([][]byte{[]byte("a2"), []byte("b2")}); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			appendCommit(t, j, "c")
			_, recs = reopen(t, j)
			equalRecords(t, recs, "a2", "b2", "c")
		})
	}
}
