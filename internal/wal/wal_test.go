package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
)

// appendAll writes records 1..n with deterministic payloads and returns
// the payloads by seq.
func appendAll(t *testing.T, l *Log, n int) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte, n)
	for i := 1; i <= n; i++ {
		seq := uint64(i)
		payload := []byte(fmt.Sprintf("record-%03d payload", i))
		synced, err := l.Append(seq, payload)
		if err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		if !synced {
			t.Fatalf("Append(%d): not synced under default options", seq)
		}
		out[seq] = payload
	}
	return out
}

// replayAll collects every record with seq > after.
func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	err := l.Replay(after, func(seq uint64, payload []byte) error {
		out = append(out, Record{Seq: seq, Payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// Record pairs a replayed seq with its payload (test-local shape).
type Record struct {
	Seq     uint64
	Payload []byte
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := appendAll(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	recs := replayAll(t, l2, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for _, r := range recs {
		if !bytes.Equal(r.Payload, want[r.Seq]) {
			t.Fatalf("seq %d payload mismatch", r.Seq)
		}
	}
	// Replay(after) skips the prefix.
	if recs := replayAll(t, l2, 3); len(recs) != 2 || recs[0].Seq != 4 {
		t.Fatalf("Replay(3) = %v, want seqs 4,5", recs)
	}
	// Appending continues after recovery.
	if _, err := l2.Append(6, []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, l2, 0); len(recs) != 6 {
		t.Fatalf("replayed %d records after append, want 6", len(recs))
	}
}

// frame builds a raw frame for corpus crafting.
func frame(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	crc := crc32.Update(crc32.Checksum(buf[8:16], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	copy(buf[headerSize:], payload)
	return buf
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := segmentNames(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("expected 1 segment, found %v", names)
	}
	return filepath.Join(dir, names[0])
}

// TestTornTailCorpus is the table-driven corruption corpus: each case
// damages a freshly written 3-record log and asserts recovery keeps
// exactly the records before the damage, truncating the rest.
func TestTornTailCorpus(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		// wantSeqs is the full replay after recovery.
		wantSeqs []uint64
	}{
		{
			name: "truncated frame",
			corrupt: func(t *testing.T, path string) {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				// Chop 3 bytes off record 3's payload.
				if err := os.Truncate(path, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			wantSeqs: []uint64{1, 2},
		},
		{
			name: "bit-flipped crc",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Record 2 starts after magic + record 1's frame; flip a
				// bit in its CRC field. Everything after record 1 becomes
				// unreachable: the tail past a bad frame cannot be trusted.
				rec1 := len(frame(1, []byte("record-001 payload")))
				off := len(magic) + rec1 + 4
				data[off] ^= 0x10
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantSeqs: []uint64{1},
		},
		{
			name: "zero-filled tail",
			corrupt: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(make([]byte, 64)); err != nil {
					t.Fatal(err)
				}
			},
			wantSeqs: []uint64{1, 2, 3},
		},
		{
			name: "duplicate seq",
			corrupt: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				// A well-formed frame re-using seq 3: CRC passes, but the
				// sequence check stops replay before it.
				if _, err := f.Write(frame(3, []byte("imposter"))); err != nil {
					t.Fatal(err)
				}
			},
			wantSeqs: []uint64{1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, 3)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := onlySegment(t, dir)
			tc.corrupt(t, path)

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after corruption: %v", err)
			}
			defer l2.Close()
			recs := replayAll(t, l2, 0)
			if len(recs) != len(tc.wantSeqs) {
				t.Fatalf("replayed %d records, want %d", len(recs), len(tc.wantSeqs))
			}
			for i, seq := range tc.wantSeqs {
				if recs[i].Seq != seq {
					t.Fatalf("record %d has seq %d, want %d", i, recs[i].Seq, seq)
				}
			}
			wantLast := uint64(0)
			if n := len(tc.wantSeqs); n > 0 {
				wantLast = tc.wantSeqs[n-1]
			}
			if got := l2.LastSeq(); got != wantLast {
				t.Fatalf("LastSeq = %d, want %d", got, wantLast)
			}
			// The torn tail is physically gone: append the next record and
			// a third open replays a clean history.
			next := wantLast + 1
			if _, err := l2.Append(next, []byte("resumed")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			l3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if recs := replayAll(t, l3, 0); len(recs) != len(tc.wantSeqs)+1 ||
				recs[len(recs)-1].Seq != next {
				t.Fatalf("post-recovery history wrong: %v", recs)
			}
		})
	}
}

// TestCorruptMiddleSegmentRefused: damage before the final segment is
// not a torn tail — acknowledged history would be lost — so Open fails.
func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}) // tiny: every record rotates
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(fault.OS, dir)
	if err != nil || len(names) < 2 {
		t.Fatalf("expected multiple segments, got %v (%v)", names, err)
	}
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptError", err)
	}
}

func TestRotationAndTruncateTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 6)
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, have %d segments", st.Segments)
	}
	// Checkpoint at 4: every segment fully at or below 4 goes away, and
	// replay still yields 5 and 6.
	if err := l.TruncateTo(4); err != nil {
		t.Fatal(err)
	}
	recs := replayAll(t, l, 4)
	if len(recs) != 2 || recs[0].Seq != 5 || recs[1].Seq != 6 {
		t.Fatalf("after TruncateTo(4), Replay(4) = %v", recs)
	}
	// Full truncation rotates the active segment and leaves an empty log
	// that still remembers lastSeq.
	if err := l.TruncateTo(6); err != nil {
		t.Fatal(err)
	}
	if recs := replayAll(t, l, 0); len(recs) != 0 {
		t.Fatalf("after TruncateTo(6), Replay(0) = %v", recs)
	}
	if got := l.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
	if _, err := l.Append(7, []byte("after full truncate")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := replayAll(t, l2, 0); len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("reopened history = %v, want just seq 7", recs)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantSynced := []bool{false, false, true, false}
	for i, want := range wantSynced {
		synced, err := l.Append(uint64(i+1), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if synced != want {
			t.Fatalf("Append %d: synced = %v, want %v", i+1, synced, want)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sync is idempotent when clean.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalTrigger(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 100, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if synced, err := l.Append(1, []byte("x")); err != nil || synced {
		t.Fatalf("first append: synced=%v err=%v", synced, err)
	}
	time.Sleep(5 * time.Millisecond)
	if synced, err := l.Append(2, []byte("y")); err != nil || !synced {
		t.Fatalf("append past interval: synced=%v err=%v, want synced", synced, err)
	}
}

func TestMonotonicSeqEnforced(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, 2)
	if _, err := l.Append(2, []byte("dup")); err == nil {
		t.Fatal("duplicate seq accepted")
	}
	if _, err := l.Append(1, []byte("regress")); err == nil {
		t.Fatal("regressing seq accepted")
	}
	if _, err := l.Append(3, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// failWriter is the failpoint seam: passes bytes through until limit
// total bytes have been written, then fails according to mode.
type failWriter struct {
	w       io.Writer
	limit   int
	written int
	mode    string // "error", "short", "discard"
}

func (fw *failWriter) Write(p []byte) (int, error) {
	room := fw.limit - fw.written
	if room >= len(p) {
		n, err := fw.w.Write(p)
		fw.written += n
		return n, err
	}
	switch fw.mode {
	case "error":
		return 0, errors.New("injected write error")
	case "short":
		if room > 0 {
			n, err := fw.w.Write(p[:room])
			fw.written += n
			if err != nil {
				return n, err
			}
			return n, io.ErrShortWrite
		}
		return 0, io.ErrShortWrite
	case "discard":
		// Simulated crash: the head of the frame may land, the rest never
		// reaches the disk, and the process never learns.
		if room > 0 {
			n, err := fw.w.Write(p[:room])
			fw.written += n
			if err != nil {
				return n, err
			}
		}
		fw.written = fw.limit
		return len(p), nil
	}
	panic("unknown mode")
}

// TestAppendErrorRepair: a failed append must leave the log clean so
// later appends (and recovery) see no partial frame.
func TestAppendErrorRepair(t *testing.T) {
	for _, mode := range []string{"error", "short"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			var fw *failWriter
			l, err := Open(dir, Options{
				Wrap: func(w io.Writer) io.Writer {
					fw = &failWriter{w: w, limit: 1 << 30, mode: mode}
					return fw
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, 2)
			// Next frame fails partway through.
			fw.limit = fw.written + 7
			if _, err := l.Append(3, []byte("doomed record")); err == nil {
				t.Fatal("expected injected failure")
			}
			// Transient fault clears; the same seq retries cleanly.
			fw.limit = 1 << 30
			if synced, err := l.Append(3, []byte("retried record")); err != nil || !synced {
				t.Fatalf("retry: synced=%v err=%v", synced, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			recs := replayAll(t, l2, 0)
			if len(recs) != 3 || string(recs[2].Payload) != "retried record" {
				t.Fatalf("recovered history = %v", recs)
			}
			if st := l2.Stats(); st.Torn != 0 {
				t.Fatalf("repair left %d torn bytes for recovery", st.Torn)
			}
		})
	}
}

// TestCrashAtByteN: the discard failpoint models the process dying after
// byte N reached the disk. Recovery keeps exactly the fully-written
// frames and truncates the partial one.
func TestCrashAtByteN(t *testing.T) {
	dir := t.TempDir()
	var fw *failWriter
	l, err := Open(dir, Options{
		Wrap: func(w io.Writer) io.Writer {
			fw = &failWriter{w: w, limit: 1 << 30, mode: "discard"}
			return fw
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 2)
	fw.limit = fw.written + 9 // frame 3 tears 9 bytes in
	if synced, err := l.Append(3, []byte("torn record")); err != nil || !synced {
		// The process believes the append (and even the fsync) succeeded.
		t.Fatalf("crash-mode append: synced=%v err=%v", synced, err)
	}
	// No Close: the "process" is dead. Reopen the directory.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2, 0)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the crash point", len(recs))
	}
	if st := l2.Stats(); st.Torn != 9 {
		t.Fatalf("Torn = %d, want 9", st.Torn)
	}
	if _, err := l2.Append(3, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("op "), 85) // ~256 B, one small commit batch
	for _, every := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("syncEvery=%d", every), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{SyncEvery: every})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(uint64(i+1), payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestPreallocate checks the segment reservation lifecycle: the active
// segment is extended to SegmentBytes at creation, rotation trims the
// sealed segment back to its valid bytes (so recovery never sees a
// zero-filled tail on a non-final segment), and a reopen over the
// reserved filler of the final segment treats it as a torn tail and
// resumes cleanly.
func TestPreallocate(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 128
	l, err := Open(dir, Options{SegmentBytes: segBytes, Preallocate: true})
	if err != nil {
		t.Fatal(err)
	}
	sizeOf := func(path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	segPaths := func() []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	paths := segPaths()
	if len(paths) != 1 {
		t.Fatalf("segments = %v, want 1", paths)
	}
	if got := sizeOf(paths[0]); got != segBytes {
		t.Fatalf("active segment size = %d, want reserved %d", got, segBytes)
	}
	// Force rotations: each sealed segment must be trimmed back to its
	// valid bytes, only the active one keeps the reservation.
	appendAll2 := func(from, to int) {
		for i := from; i <= to; i++ {
			if _, err := l.Append(uint64(i), []byte(fmt.Sprintf("record-%03d payload", i))); err != nil {
				t.Fatalf("Append(%d): %v", i, err)
			}
		}
	}
	appendAll2(2, 12)
	paths = segPaths()
	if len(paths) < 2 {
		t.Fatalf("expected rotation, segments = %v", paths)
	}
	valid := make(map[string]int64)
	for _, s := range l.segs {
		valid[s.path] = s.size
	}
	for i, p := range paths {
		got := sizeOf(p)
		if i == len(paths)-1 {
			if got != segBytes {
				t.Fatalf("active segment %s size = %d, want reserved %d", p, got, segBytes)
			}
			continue
		}
		if want := valid[p]; got != want {
			t.Fatalf("sealed segment %s size = %d, want trimmed %d", p, got, want)
		}
	}
	// Clean close trims the active segment too.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths = segPaths()
	last := paths[len(paths)-1]
	if got, want := sizeOf(last), valid[last]; got != want {
		t.Fatalf("closed active segment size = %d, want trimmed %d", got, want)
	}
	// Reopen (as after a crash mid-reservation: simulate by re-extending
	// the final segment) and verify every record replays and appends
	// resume.
	if err := os.Truncate(last, segBytes); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: segBytes, Preallocate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := replayAll(t, l2, 0)
	if len(recs) != 12 || recs[0].Seq != 1 || recs[11].Seq != 12 {
		t.Fatalf("replay after reopen = %d records, want 12 (1..12)", len(recs))
	}
	if _, err := l2.Append(13, []byte("resumed")); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNoSync checks the split append/fsync API (the benchmark's
// WAL layer drives it): records stay volatile (and the policy reports
// due) until the caller's own Sync, which then covers the whole window.
func TestAppendNoSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	due, err := l.AppendNoSync(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if due {
		t.Fatal("policy due after 1 append with SyncEvery=2")
	}
	due, err = l.AppendNoSync(2, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !due {
		t.Fatal("policy not due after 2 appends with SyncEvery=2")
	}
	// AppendNoSync never synced: the window is still open.
	if l.unsynced != 2 {
		t.Fatalf("unsynced = %d, want 2", l.unsynced)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.unsynced != 0 {
		t.Fatalf("unsynced after Sync = %d, want 0", l.unsynced)
	}
	recs := replayAll(t, l, 0)
	if len(recs) != 2 {
		t.Fatalf("replay = %d records, want 2", len(recs))
	}
}
