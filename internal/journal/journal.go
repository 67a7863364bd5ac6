// Package journal is an append-only write-ahead log for the simulation
// service: length-prefixed, CRC32C-framed records in rotated segment
// files, with a configurable fsync policy and snapshot-based
// compaction. It is the durability substrate under internal/svc — the
// service journals every job lifecycle transition and replays the log
// on startup, so accepted work and computed results survive a crash or
// a deploy restart.
//
// Recovery is conservative and total: a torn or corrupted frame is
// detected by its checksum (or an impossible length), the segment is
// truncated at the first bad byte, the loss is counted and surfaced in
// Stats — never a panic, never a silently wrong replay. Records before
// the bad frame are intact by construction (each frame carries its own
// CRC), so the only data at risk is the unsynced tail the fsync policy
// chose to leave in flight.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Frame layout: a fixed header of payload length and payload CRC32C
// (both little-endian uint32) followed by the payload bytes. Empty
// payloads are rejected at encode and treated as corruption at decode,
// so a run of zero bytes (a preallocated or torn region) can never
// parse as an endless stream of valid empty records.
const (
	headerSize = 8
	// MaxFrame bounds one record's payload; a decoded length above it
	// is corruption, not a request to allocate.
	MaxFrame = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTruncated means the buffer ends mid-frame (the
// expected shape of a crash-torn tail); ErrCorrupt means the bytes
// cannot be a frame (zero or oversized length, checksum mismatch).
var (
	ErrTruncated = errors.New("journal: truncated frame")
	ErrCorrupt   = errors.New("journal: corrupt frame")
	ErrClosed    = errors.New("journal: closed")
)

// EncodeFrame wraps payload in the on-disk frame format.
func EncodeFrame(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("%w: payload %d exceeds %d", ErrCorrupt, len(payload), MaxFrame)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf, nil
}

// DecodeFrame reads one frame from the front of data, returning the
// payload and the remaining bytes. It never panics and never reads
// past len(data): arbitrary input yields either a valid record or
// ErrTruncated/ErrCorrupt.
func DecodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < headerSize {
		return nil, data, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > MaxFrame {
		return nil, data, fmt.Errorf("%w: impossible length %d", ErrCorrupt, n)
	}
	if uint64(len(data)-headerSize) < uint64(n) {
		return nil, data, ErrTruncated
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	payload = data[headerSize : headerSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, data, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, data[headerSize+int(n):], nil
}

// SyncPolicy selects when appends are made durable.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: nothing acknowledged is
	// ever lost, at one fsync of latency per record.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs dirty segments from a background ticker
	// (Options.SyncInterval); a crash loses at most one interval.
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves durability to the OS page cache (still synced
	// on rotation, compaction, and Close).
	SyncNever SyncPolicy = "never"
)

// ParseSyncPolicy validates a policy name (the -fsync flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	case "":
		return SyncAlways, nil
	}
	return "", fmt.Errorf("journal: unknown sync policy %q (want always, interval, or never)", s)
}

// Options configures Open. Only Dir is required.
type Options struct {
	// Dir is the journal directory (created if missing): segment files
	// wal-<seq>.log plus at most one snapshot file.
	Dir string
	// Sync is the fsync policy; empty means SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the flush period for SyncInterval; <= 0 means
	// 100ms.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size; <= 0 means 4 MiB.
	SegmentBytes int64
}

// Stats is a point-in-time view of the journal's durability state.
type Stats struct {
	// Appended and Synced count records written and records known
	// durable; Lag is their difference (the crash-loss window).
	Appended uint64 `json:"appended"`
	Synced   uint64 `json:"synced"`
	Lag      uint64 `json:"lag"`
	// LastSyncAgeSeconds is the time since the last successful fsync
	// (0 before the first).
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds"`
	// Truncations and TruncatedBytes count torn/corrupt tails cut off
	// during recovery (carried from Open) plus any detected later.
	Truncations    uint64 `json:"truncations"`
	TruncatedBytes uint64 `json:"truncated_bytes"`
	// Segments is the number of live segment files; ActiveSegment its
	// highest sequence number.
	Segments      int    `json:"segments"`
	ActiveSegment uint64 `json:"active_segment"`
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotCorrupt is true when a snapshot file existed but failed
	// its checksum; recovery then falls back to replaying every
	// surviving segment rather than trusting damaged state.
	SnapshotCorrupt bool `json:"snapshot_corrupt,omitempty"`
	SegmentsRead    int  `json:"segments_read"`
	RecordsReplayed int  `json:"records_replayed"`
	// Truncations/TruncatedBytes count bad frames found during replay;
	// each truncation cut one segment at the first bad byte.
	Truncations    uint64 `json:"truncations"`
	TruncatedBytes uint64 `json:"truncated_bytes"`
}

// Recovery is everything Open replayed: the latest snapshot payload
// (nil when none), the records appended after it, in order, and the
// stats describing how cleanly the disk state parsed.
type Recovery struct {
	Snapshot []byte
	Records  [][]byte
	Stats    RecoveryStats
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	opts Options

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // active segment sequence
	segBytes int64
	segCount int
	appended uint64
	synced   uint64
	lastSync time.Time
	truncs   uint64
	truncB   uint64
	dirty    bool
	closed   bool

	stopc chan struct{}
	donec chan struct{}
}

const snapshotFile = "snapshot"

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

func parseSegmentName(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.log", &seq); n != 1 || err != nil {
		return 0, false
	}
	return seq, true
}

// readSnapshot loads the newest valid snapshot in dir into rec and
// returns the highest segment sequence it covers. A decodable snapshot
// fills rec.Snapshot; a damaged one sets SnapshotCorrupt (recovery then
// falls back to the surviving segments — never trust a bad checksum).
func readSnapshot(dir string, rec *Recovery) (covers uint64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("journal: read snapshot: %w", err)
	}
	if payload, _, derr := DecodeFrame(data); derr == nil && len(payload) >= 8 {
		covers = binary.BigEndian.Uint64(payload[:8])
		rec.Snapshot = append([]byte(nil), payload[8:]...)
		rec.Stats.SnapshotLoaded = true
	} else {
		// The snapshot is written atomically (fsync + rename), so a
		// bad one means external damage.
		rec.Stats.SnapshotCorrupt = true
	}
	return covers, nil
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: read dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanRecords decodes frames from the front of data into rec until the
// data ends or a torn/corrupt frame stops the scan (counted, with the
// remainder reported as truncated). It returns the byte offset of the
// first undecodable byte — the length of the valid prefix.
func scanRecords(data []byte, rec *Recovery) (validLen int) {
	off := 0
	rest := data
	for len(rest) > 0 {
		payload, next, derr := DecodeFrame(rest)
		if derr != nil {
			rec.Stats.Truncations++
			rec.Stats.TruncatedBytes += uint64(len(rest))
			return off
		}
		rec.Records = append(rec.Records, append([]byte(nil), payload...))
		rec.Stats.RecordsReplayed++
		off += headerSize + len(payload)
		rest = next
	}
	return off
}

// Open opens (creating if needed) the journal in opts.Dir and replays
// it: the newest valid snapshot, then every record in the segments
// appended after it. Torn or corrupted tails are truncated at the
// first bad frame and counted in the returned Recovery — Open only
// fails on real I/O errors, never on damaged content.
func Open(opts Options) (*Journal, *Recovery, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("journal: Options.Dir is required")
	}
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}

	rec := &Recovery{}
	// Segments <= covers are folded into the snapshot.
	covers, err := readSnapshot(opts.Dir, rec)
	if err != nil {
		return nil, nil, err
	}

	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}

	j := &Journal{opts: opts}
	for _, seq := range seqs {
		path := filepath.Join(opts.Dir, segmentName(seq))
		if seq <= covers {
			// Already folded into the snapshot; a leftover from a crash
			// between snapshot commit and segment removal.
			_ = os.Remove(path)
			continue
		}
		if err := j.replaySegment(path, rec); err != nil {
			return nil, nil, err
		}
		rec.Stats.SegmentsRead++
		j.segCount++
		j.seg = seq
	}
	j.truncs = rec.Stats.Truncations
	j.truncB = rec.Stats.TruncatedBytes

	if j.seg == 0 {
		j.seg = covers + 1
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(j.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: stat segment: %w", err)
	}
	j.f = f
	j.segBytes = st.Size()
	if j.segCount == 0 {
		j.segCount = 1
		if err := syncDir(opts.Dir); err != nil {
			f.Close()
			return nil, nil, err
		}
	}

	if opts.Sync == SyncInterval {
		j.stopc = make(chan struct{})
		j.donec = make(chan struct{})
		go j.syncLoop()
	}
	return j, rec, nil
}

// replaySegment appends the segment's valid records to rec, truncating
// the file at the first torn or corrupted frame.
func (j *Journal) replaySegment(path string, rec *Recovery) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: read segment: %w", err)
	}
	before := rec.Stats.Truncations
	off := scanRecords(data, rec)
	if rec.Stats.Truncations > before {
		if terr := os.Truncate(path, int64(off)); terr != nil {
			return fmt.Errorf("journal: truncate %s after bad frame: %w", path, terr)
		}
	}
	return nil
}

// Export reads the journal in dir without opening it for appends: the
// newest valid snapshot plus every decodable record in the segments
// after it, exactly as Open would replay them — but strictly read-only.
// Torn or corrupt tails are counted in the returned stats and left
// untouched on disk, and no segment is created, truncated, or removed:
// the owning process may be dead only temporarily, and its own restart
// must find its log exactly as the crash left it.
//
// This is the extraction half of cluster rebalance: a gateway exports a
// departed shard's WAL and replays the recovered jobs into the shard's
// hash-ring successors.
func Export(dir string) (*Recovery, error) {
	if dir == "" {
		return nil, errors.New("journal: export dir is required")
	}
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("journal: export: %w", err)
	}
	rec := &Recovery{}
	covers, err := readSnapshot(dir, rec)
	if err != nil {
		return nil, err
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		if seq <= covers {
			continue // folded into the snapshot
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, fmt.Errorf("journal: read segment: %w", err)
		}
		scanRecords(data, rec)
		rec.Stats.SegmentsRead++
	}
	return rec, nil
}

// Append writes one record. With SyncAlways it returns only once the
// record is fsynced; other policies return after the OS write.
func (j *Journal) Append(payload []byte) error {
	return j.write(payload, j.opts.Sync == SyncAlways)
}

// AppendDefer writes one record without fsyncing, regardless of the
// sync policy: the caller owns the Sync() that makes a run of deferred
// appends durable — the amortized-fsync half of group commit. A crash
// before that Sync can lose the record; deferred callers accept this
// because the records they defer are reconstructible (the service
// replays a batch member from its group-accepted record and re-runs the
// deterministic simulation).
func (j *Journal) AppendDefer(payload []byte) error { return j.write(payload, false) }

// write appends one framed record, fsyncs it when sync is set, and
// rotates the segment once it is full.
func (j *Journal) write(payload []byte, sync bool) error {
	frame, err := EncodeFrame(payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appended++
	j.segBytes += int64(len(frame))
	j.dirty = true
	if sync {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	if j.segBytes >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the active segment, making every appended record durable.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.synced = j.appended
	j.lastSync = time.Now()
	j.dirty = false
	return nil
}

// rotateLocked seals the active segment (fsync, regardless of policy)
// and starts the next one.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.seg++
	f, err := os.OpenFile(filepath.Join(j.opts.Dir, segmentName(j.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.segBytes = 0
	j.segCount++
	return syncDir(j.opts.Dir)
}

// Compact makes snapshot the new recovery baseline: every record
// appended so far is superseded by it. The snapshot is committed
// atomically (temp file, fsync, rename, directory fsync) before any
// segment is deleted, so a crash at any point leaves either the old
// log or the new snapshot — never neither.
func (j *Journal) Compact(snapshot []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	covers := j.seg

	payload := make([]byte, 8+len(snapshot))
	binary.BigEndian.PutUint64(payload[:8], covers)
	copy(payload[8:], snapshot)
	frame, err := EncodeFrame(payload)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(j.opts.Dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("journal: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.opts.Dir, snapshotFile)); err != nil {
		return fmt.Errorf("journal: commit snapshot: %w", err)
	}
	if err := syncDir(j.opts.Dir); err != nil {
		return err
	}

	// The snapshot is durable; the segments it covers are now garbage.
	if entries, err := os.ReadDir(j.opts.Dir); err == nil {
		for _, e := range entries {
			if seq, ok := parseSegmentName(e.Name()); ok && seq <= covers {
				_ = os.Remove(filepath.Join(j.opts.Dir, e.Name()))
			}
		}
	}
	j.seg = covers + 1
	f, err := os.OpenFile(filepath.Join(j.opts.Dir, segmentName(j.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	j.segBytes = 0
	j.segCount = 1
	return syncDir(j.opts.Dir)
}

// Stats returns the journal's durability counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Stats{
		Appended:       j.appended,
		Synced:         j.synced,
		Lag:            j.appended - j.synced,
		Truncations:    j.truncs,
		TruncatedBytes: j.truncB,
		Segments:       j.segCount,
		ActiveSegment:  j.seg,
	}
	if !j.lastSync.IsZero() {
		s.LastSyncAgeSeconds = time.Since(j.lastSync).Seconds()
	}
	return s
}

// Close fsyncs and closes the journal. Further appends fail with
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	stop := j.stopc
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.donec
	}
	return err
}

// syncLoop is the SyncInterval flusher.
func (j *Journal) syncLoop() {
	defer close(j.donec)
	tick := time.NewTicker(j.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			j.mu.Lock()
			if !j.closed {
				_ = j.syncLocked()
			}
			j.mu.Unlock()
		case <-j.stopc:
			return
		}
	}
}

// syncDir fsyncs a directory so renames and file creations in it
// survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
