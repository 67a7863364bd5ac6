package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func appendAll(t *testing.T, j *Journal, records ...string) {
	t.Helper()
	for _, r := range records {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func recordStrings(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, Options{Dir: dir})
	if rec.Stats.RecordsReplayed != 0 || rec.Snapshot != nil {
		t.Fatalf("fresh journal recovered %+v", rec.Stats)
	}
	appendAll(t, j, "one", "two", "three")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = mustOpen(t, Options{Dir: dir})
	got := recordStrings(rec)
	want := []string{"one", "two", "three"}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if rec.Stats.Truncations != 0 {
		t.Fatalf("clean log reported truncations: %+v", rec.Stats)
	}
}

// TestTornTailTruncated simulates a crash mid-append: a partial frame
// at the segment tail must be cut off and counted, with every earlier
// record intact.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, "alpha", "beta")
	j.Close()

	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a header: the classic torn write.
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if got := recordStrings(rec); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("replayed %v", got)
	}
	if rec.Stats.Truncations != 1 || rec.Stats.TruncatedBytes != 3 {
		t.Fatalf("truncation not counted: %+v", rec.Stats)
	}
	// The file itself was repaired: a third open sees a clean log.
	if err := j2.Append([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rec = mustOpen(t, Options{Dir: dir})
	if got := recordStrings(rec); len(got) != 3 || got[2] != "gamma" || rec.Stats.Truncations != 0 {
		t.Fatalf("after repair: %v %+v", got, rec.Stats)
	}
}

// TestCorruptFrameTruncated flips payload bytes mid-log: replay keeps
// the records before the damage and cuts everything after.
func TestCorruptFrameTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, "keep-me", "damage-me", "after")
	j.Close()

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the second record's payload.
	idx := bytes.Index(data, []byte("damage-me"))
	if idx < 0 {
		t.Fatal("payload not found")
	}
	data[idx] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if got := recordStrings(rec); len(got) != 1 || got[0] != "keep-me" {
		t.Fatalf("replayed %v, want just keep-me", got)
	}
	if rec.Stats.Truncations != 1 || rec.Stats.TruncatedBytes == 0 {
		t.Fatalf("corruption not counted: %+v", rec.Stats)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		appendAll(t, j, fmt.Sprintf("record-%02d", i))
	}
	st := j.Stats()
	if st.Segments < 2 {
		t.Fatalf("no rotation after 20 records over a 64-byte segment cap: %+v", st)
	}
	j.Close()

	j2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer j2.Close()
	if got := recordStrings(rec); len(got) != 20 || got[0] != "record-00" || got[19] != "record-19" {
		t.Fatalf("replay across segments: %d records", len(got))
	}
}

func TestCompactionSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		appendAll(t, j, fmt.Sprintf("old-%d", i))
	}
	if err := j.Compact([]byte("STATE-AT-COMPACTION")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "new-0", "new-1")
	j.Close()

	j2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer j2.Close()
	if !rec.Stats.SnapshotLoaded || string(rec.Snapshot) != "STATE-AT-COMPACTION" {
		t.Fatalf("snapshot: loaded=%v %q", rec.Stats.SnapshotLoaded, rec.Snapshot)
	}
	if got := recordStrings(rec); len(got) != 2 || got[0] != "new-0" || got[1] != "new-1" {
		t.Fatalf("post-snapshot records: %v", got)
	}
	// Compaction removed the covered segments from disk.
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segments left after compaction, want 1", segs)
	}
}

// TestCorruptSnapshotFallsBack damages the snapshot file: recovery
// must flag it and still replay the surviving segments, never panic or
// silently serve bad state.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	appendAll(t, j, "pre-compact")
	if err := j.Compact([]byte("good-state")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "post-compact")
	j.Close()

	snap := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if !rec.Stats.SnapshotCorrupt || rec.Stats.SnapshotLoaded {
		t.Fatalf("corrupt snapshot not flagged: %+v", rec.Stats)
	}
	if got := recordStrings(rec); len(got) != 1 || got[0] != "post-compact" {
		t.Fatalf("fallback replay: %v", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		j, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncAlways})
		defer j.Close()
		appendAll(t, j, "r")
		if st := j.Stats(); st.Lag != 0 || st.Synced != 1 {
			t.Fatalf("always policy left lag: %+v", st)
		}
	})
	t.Run("never", func(t *testing.T) {
		j, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncNever})
		defer j.Close()
		appendAll(t, j, "r1", "r2")
		if st := j.Stats(); st.Lag != 2 {
			t.Fatalf("never policy lag = %d, want 2", st.Lag)
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Lag != 0 {
			t.Fatalf("explicit Sync left lag: %+v", st)
		}
	})
	t.Run("interval", func(t *testing.T) {
		j, _ := mustOpen(t, Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: 5 * time.Millisecond})
		defer j.Close()
		appendAll(t, j, "r")
		deadline := time.Now().Add(2 * time.Second)
		for j.Stats().Lag != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("interval syncer never flushed: %+v", j.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

func TestClosedJournalRejectsAppends(t *testing.T) {
	j, _ := mustOpen(t, Options{Dir: t.TempDir()})
	j.Close()
	if err := j.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, ok := range []string{"", "always", "interval", "never"} {
		if _, err := ParseSyncPolicy(ok); err != nil {
			t.Fatalf("%q: %v", ok, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestFrameRejectsEmptyAndOversized(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Fatal("empty payload encoded")
	}
	// A run of zeros must not decode as valid empty records.
	if _, _, err := DecodeFrame(make([]byte, 64)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero run decoded: %v", err)
	}
	if _, _, err := DecodeFrame([]byte{1, 2}); !errors.Is(err, ErrTruncated) {
		t.Fatal("short buffer not ErrTruncated")
	}
}

func TestAppendDeferCallerOwnsSync(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	// Deferred appends skip the per-record fsync even under SyncAlways:
	// the caller amortizes durability across the run with one Sync.
	for i := 0; i < 5; i++ {
		if err := j.AppendDefer([]byte(fmt.Sprintf("deferred-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Lag != 5 {
		t.Fatalf("deferred lag = %d, want 5: %+v", st.Lag, st)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Lag != 0 || st.Synced != 5 {
		t.Fatalf("post-sync stats: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, Options{Dir: dir})
	if len(rec.Records) != 5 {
		t.Fatalf("replayed %d records, want 5", len(rec.Records))
	}
}
