package ckptstore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzCheckpointDecode drives arbitrary bytes through Decode (it must
// never panic and never allocate past the input size) and checks the
// Encode/Decode roundtrip on the same bytes treated as a payload.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MHCK"))
	f.Add(Encode(nil))
	f.Add(Encode([]byte("payload")))
	f.Add(Encode(bytes.Repeat([]byte{0xaa}, 300)))
	trunc := Encode([]byte("truncate me"))
	f.Add(trunc[:len(trunc)-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := Decode(data); err == nil {
			// Whatever decodes must re-encode to something that decodes
			// to the same payload.
			back, err := Decode(Encode(payload))
			if err != nil {
				t.Fatalf("re-encode of decoded payload fails: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatalf("roundtrip mismatch: %x vs %x", back, payload)
			}
		}
		// Any input is also a valid payload; its frame must roundtrip.
		back, err := Decode(Encode(data))
		if err != nil {
			t.Fatalf("Encode(%d bytes) does not decode: %v", len(data), err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("payload roundtrip mismatch")
		}
	})
}

// replayBytes replays an in-memory journal.
func replayBytes(data []byte, fn func(rec []byte) error) (int64, error) {
	return replay(bytes.NewReader(data), int64(len(data)), fn)
}

// FuzzJournalReplay drives arbitrary bytes through journal replay: it
// must never panic, never allocate much beyond the input, and return a
// valid prefix — the header and whole records, which re-frame to exactly
// those bytes — plus the offset where the torn tail starts.
func FuzzJournalReplay(f *testing.F) {
	hdr := journalHeader()
	f.Add([]byte{})
	f.Add(hdr[:3])
	f.Add(hdr)
	one := appendFrame(append([]byte(nil), hdr...), []byte("spec"))
	two := appendFrame(append([]byte(nil), one...), []byte("result"))
	f.Add(two)
	f.Add(two[:len(two)-2])
	f.Add(append(append([]byte(nil), one...), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4))
	f.Add(Encode([]byte("a checkpoint, not a journal")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		valid, err := replayBytes(data, func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		runtime.ReadMemStats(&after)
		// The records kept by this callback are copies; replay itself
		// may add one record buffer (at most the input's size) and a
		// reader. The slack absorbs the fuzzing engine's own
		// allocations; a length field trusted past the input would
		// allocate up to MaxPayload.
		kept := 0
		for _, r := range recs {
			kept += cap(r) + 24
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(2*len(data)+kept+64<<10) {
			t.Fatalf("replaying %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || valid != 0 || len(recs) != 0 {
				t.Fatalf("replay error %v with valid=%d and %d records", err, valid, len(recs))
			}
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside the %d-byte input", valid, len(data))
		}
		if valid == 0 {
			if len(recs) != 0 || len(data) >= headerSize {
				t.Fatalf("valid=0 with %d records over %d bytes", len(recs), len(data))
			}
			return
		}
		want := append([]byte(nil), hdr...)
		for _, r := range recs {
			want = appendFrame(want, r)
		}
		if !bytes.Equal(want, data[:valid]) {
			t.Fatalf("records re-frame to %x, want the valid prefix %x", want, data[:valid])
		}
		// The prefix alone replays to the same records and length.
		again := 0
		if v, err := replayBytes(data[:valid], func([]byte) error { again++; return nil }); err != nil || v != valid || again != len(recs) {
			t.Fatalf("replaying the prefix: valid %d (%v), %d records; want %d, %d", v, err, again, valid, len(recs))
		}
	})
}
