// Native fuzz target for WAL frame decoding: an arbitrary byte blob
// dropped in as a segment file must never panic Open or Replay. The
// contract under corruption is graceful: a damaged tail is truncated
// away and replay delivers the clean prefix in strictly increasing
// sequence order; damage before the tail is a clean CorruptError.
// Seeds are real segments (written through the log itself) with the
// torn-tail corpus's mutations applied.
package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// sealedSegment builds a real segment holding n records via the log's
// own write path and returns its raw bytes.
func sealedSegment(f *testing.F, n int) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := l.Append(uint64(i), []byte("insert order a,b,book,1.5\ncommit\n")); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	names, err := segmentNames(fault.OS, dir)
	if err != nil || len(names) == 0 {
		f.Fatalf("no segment written: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

func FuzzReplay(f *testing.F) {
	seg := sealedSegment(f, 3)
	f.Add(seg)
	f.Add(seg[:len(seg)-1])    // torn mid-frame
	f.Add(seg[:len(magic)])    // header only
	f.Add(seg[:len(magic)-3])  // short magic
	f.Add([]byte{})            // empty file
	f.Add([]byte("NOTAWAL!!")) // bad magic
	flip := append([]byte(nil), seg...)
	flip[len(flip)-1] ^= 0xff
	f.Add(flip) // bit-flipped CRC in the last frame
	zero := append([]byte(nil), seg...)
	for i := len(zero) - 8; i < len(zero); i++ {
		zero[i] = 0
	}
	f.Add(zero) // zero-filled tail

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000000000000000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A huge SyncEvery keeps the property about decoding, not disk
		// syncs — real fsyncs would cap the fuzzer at a few execs/sec.
		l, err := Open(dir, Options{SyncEvery: 1 << 30})
		if err != nil {
			return // clean refusal (e.g. mid-log corruption) is a valid outcome
		}
		defer l.Close()
		last := uint64(0)
		err = l.Replay(0, func(seq uint64, payload []byte) error {
			if seq <= last {
				t.Fatalf("replay out of order: %d after %d", seq, last)
			}
			last = seq
			return nil
		})
		if err != nil {
			t.Fatalf("Open accepted the log but Replay failed: %v", err)
		}
		// The log must stay writable after recovery: the torn tail is
		// gone and the next append slots in above the last good record.
		if _, err := l.Append(last+1, []byte("x")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
