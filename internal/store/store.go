// Package store is the durable write-ahead journal under the cluster's
// control plane: an append-only log of opaque records with CRC-framed
// entries, group-committed fsync, segment rotation, and compaction into
// a snapshot record — the persistence layer that lets a master process
// crash (or deploy) without losing accepted work.
//
// The journal stores bytes, not scheduler state: internal/cluster
// defines the record encoding (job accepted, chunk committed, job
// finished, snapshot) and its replay semantics. The contract the store
// provides is narrower and testable on its own:
//
//   - Write puts a record after every record written before it, without
//     waiting for the disk. Sync makes every record written before the
//     call durable. Syncs are group-committed: one fsync runs at a time,
//     and callers that arrive while it runs share the next one, so N
//     concurrent writers cost far fewer than N fsyncs. A failed fsync is
//     sticky — every later Write, Sync and Append fails, because after
//     a failed fsync the kernel no longer says which pages reached disk.
//   - Append is Write then Sync: a nil return means the record is
//     durable.
//   - Replay yields exactly the durable record prefix, in write order
//     (plus any later records the OS happened to persist). A torn tail
//     — the crash hit mid-write — is detected by the frame CRC/length
//     and silently dropped; Open truncates it so subsequent writes
//     extend the valid prefix instead of burying garbage.
//   - A segment rotates only once it is full and every record in it is
//     durable, so a crash can tear the newest segment alone. Rotation
//     happens inside Sync, off any caller's lock, and costs no fsync of
//     its own: the new segment's directory entry is synced by the Sync
//     that first makes one of its records durable.
//   - Compact(snapshot) starts a fresh segment whose first record is
//     the snapshot (flagged so replay can reset state), then deletes
//     the older segments. A crash between the two steps is safe: the
//     stale segments replay first and the snapshot record resets them.
//
// Segment files are named wal-%08d.log and replayed in sequence order.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Frame layout: u32 payload length, u32 CRC-32C over (flag byte ‖
// payload), 1 flag byte (0 data, 1 snapshot), payload bytes.
const (
	frameHeaderLen = 4 + 4 + 1

	flagData     = 0
	flagSnapshot = 1
)

// maxRecord bounds one record so a corrupted length prefix cannot
// provoke a giant allocation during replay (1 GiB is far above any
// legal record: the largest is a snapshot of every live job).
const maxRecord = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Write and Append after Close.
var ErrClosed = errors.New("store: journal closed")

// Options tunes a Journal.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size and all of it is durable. Default 64 MiB.
	SegmentBytes int64
	// NoSync skips every fsync (benchmarks only; a crash may lose
	// acknowledged records).
	NoSync bool
	// Sync overrides the fsync call — the fault-injection hook. Nil uses
	// (*os.File).Sync.
	Sync func(*os.File) error
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Records   int   // valid records delivered (snapshots included)
	Snapshots int   // snapshot records among them
	Bytes     int64 // payload bytes delivered
	Torn      int   // trailing bytes dropped as a torn tail
}

// Journal is an append-only record log over segment files in one
// directory. Write, Sync and Append are safe for concurrent use; records
// land in the order their Write calls were serialized. Replay may run on
// a live directory (a concurrent reader sees a valid prefix).
type Journal struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond           // signalled when a sync finishes
	hdr  [frameHeaderLen]byte // frame header scratch for writeLocked

	cur     *os.File
	curSeq  int
	curSize int64
	closed  bool

	written  uint64 // records written so far
	synced   uint64 // records known durable
	syncing  bool   // an fsync runs outside mu
	dirDirty bool   // a segment was created since the last directory fsync
	err      error  // sticky write or fsync failure
}

// Open creates dir if needed, validates the newest segment's tail
// (truncating any torn frame so appends extend the durable prefix), and
// opens the journal for appending.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.Sync == nil {
		opts.Sync = (*os.File).Sync
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	j.cond = sync.NewCond(&j.mu)
	seqs, err := j.segments()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := j.openSegment(1); err != nil {
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			j.cur.Close()
			return nil, err
		}
		return j, nil
	}
	last := seqs[len(seqs)-1]
	path := j.segmentPath(last)
	valid, err := validPrefix(path)
	if err != nil {
		return nil, err
	}
	if err := os.Truncate(path, valid); err != nil {
		return nil, fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if err := j.openSegment(last); err != nil {
		return nil, err
	}
	j.curSize = valid
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Size returns the total bytes across all segment files.
func (j *Journal) Size() int64 {
	seqs, err := j.segments()
	if err != nil {
		return 0
	}
	var total int64
	for _, s := range seqs {
		if fi, err := os.Stat(j.segmentPath(s)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Append writes one record and waits until it is durable. A nil error
// means the record is durable.
func (j *Journal) Append(rec []byte) error { return j.append(rec, flagData) }

func (j *Journal) append(rec []byte, flag byte) error {
	j.mu.Lock()
	err := j.writeLocked(rec, flag)
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return j.Sync()
}

// Write frames and writes one record after every record written before
// it, without waiting for the disk: the record is durable once a Sync
// that started after Write returned has returned nil.
func (j *Journal) Write(rec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(rec, flagData)
}

// writeLocked writes the frame header, then the payload straight from
// rec. A crash between the two writes leaves a torn tail, which Open
// and Replay drop. A failed write is sticky: the file may now end in a
// partial frame that later records must not follow.
func (j *Journal) writeLocked(rec []byte, flag byte) error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	if len(rec) > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds the %d limit", len(rec), maxRecord)
	}
	h := j.hdr[:]
	binary.LittleEndian.PutUint32(h[0:], uint32(len(rec)))
	h[8] = flag
	binary.LittleEndian.PutUint32(h[4:], crc32.Update(crc32.Update(0, crcTable, h[8:]), crcTable, rec))
	if _, err := j.cur.Write(h); err != nil {
		j.err = fmt.Errorf("store: append: %w", err)
		return j.err
	}
	if _, err := j.cur.Write(rec); err != nil {
		j.err = fmt.Errorf("store: append: %w", err)
		return j.err
	}
	j.curSize += int64(frameHeaderLen + len(rec))
	j.written++
	return nil
}

// Sync returns once every record written before the call is durable.
// One fsync runs at a time; a caller that finds one running waits for it
// and, if its records were written too late to be covered, leads the
// next one on behalf of everyone who queued meanwhile. The first fsync
// failure is returned to every caller from then on.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	target := j.written
	for {
		if j.err != nil {
			return j.err
		}
		if j.synced >= target {
			j.rotateIfFullLocked()
			return j.err
		}
		if !j.syncing {
			break
		}
		j.cond.Wait()
	}
	if j.closed {
		return ErrClosed
	}
	j.syncing = true
	f, upto, dirty := j.cur, j.written, j.dirDirty
	j.mu.Unlock()
	var err error
	if !j.opts.NoSync {
		if dirty {
			err = syncDir(j.dir)
		}
		if err == nil {
			if err = j.opts.Sync(f); err != nil {
				err = fmt.Errorf("store: fsync: %w", err)
			}
		}
	}
	j.mu.Lock()
	j.syncing = false
	j.cond.Broadcast()
	if err != nil {
		j.err = err
		return err
	}
	if dirty {
		j.dirDirty = false // rotation waits for !syncing, so f is still current
	}
	if upto > j.synced {
		j.synced = upto
	}
	j.rotateIfFullLocked()
	return j.err
}

// rotateIfFullLocked switches to a fresh segment once the current one is
// full and quiescent: nothing written since the last fsync and no fsync
// running. Only then is every record of the old segment durable, so a
// crash can never leave a torn frame anywhere but the newest segment.
// Opening the file is metadata only; the directory entry becomes
// durable with the next Sync (dirDirty), before any of its records is
// reported durable.
func (j *Journal) rotateIfFullLocked() {
	if j.closed || j.err != nil || j.syncing || j.synced != j.written || j.curSize < j.opts.SegmentBytes {
		return
	}
	old := j.cur
	if err := j.openSegment(j.curSeq + 1); err != nil {
		j.err = err
		return
	}
	j.dirDirty = true
	old.Close() // every record in it is durable: a close error loses nothing
}

// Compact starts a fresh segment whose first record is snapshot (marked
// so Replay reports it as one), then removes every older segment.
// Appends continue into the new segment. Crash-safe: the snapshot is
// durable before any old segment is deleted, and a replay that still
// sees stale segments resets at the snapshot record.
func (j *Journal) Compact(snapshot []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.quiesceLocked(); err != nil {
		return err
	}
	old, err := j.segments()
	if err != nil {
		return err
	}
	prev := j.cur
	if err := j.openSegment(j.curSeq + 1); err != nil {
		j.err = err
		return err
	}
	prev.Close() // fully synced by quiesceLocked
	if err := syncDir(j.dir); err != nil {
		j.err = err
		return err
	}
	if err := j.writeLocked(snapshot, flagSnapshot); err != nil {
		return err
	}
	if err := j.fsyncLocked(); err != nil {
		return err
	}
	for _, s := range old {
		if err := os.Remove(j.segmentPath(s)); err != nil {
			return fmt.Errorf("store: drop compacted segment: %w", err)
		}
	}
	return syncDir(j.dir)
}

// quiesceLocked waits out a running sync, then makes every written
// record durable with mu held — for Compact and Close, which run when no
// caller is waiting on the journal's latency.
func (j *Journal) quiesceLocked() error {
	for j.syncing {
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrClosed
	}
	return j.fsyncLocked()
}

// fsyncLocked fsyncs the current segment (and the directory, if a
// segment was created since it was last synced) with mu held.
func (j *Journal) fsyncLocked() error {
	if !j.opts.NoSync {
		if j.dirDirty {
			if err := syncDir(j.dir); err != nil {
				j.err = err
				return err
			}
		}
		if err := j.opts.Sync(j.cur); err != nil {
			j.err = fmt.Errorf("store: fsync: %w", err)
			return j.err
		}
	}
	j.dirDirty = false
	j.synced = j.written
	return nil
}

// Replay streams every durable record to fn in append order. The
// snapshot flag tells the caller to reset its state before applying the
// record. A torn tail on the newest segment is dropped silently; a
// corrupt frame on an older (complete-by-construction) segment is an
// error. fn returning an error aborts the replay.
func (j *Journal) Replay(fn func(rec []byte, snapshot bool) error) (ReplayStats, error) {
	return ReplayDir(j.dir, fn)
}

// ReplayDir is Replay over a directory without opening it for appends —
// safe on a live journal owned by another process (the reader sees a
// valid prefix; a frame the writer is mid-way through writing reads as
// a torn tail).
func ReplayDir(dir string, fn func(rec []byte, snapshot bool) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := segmentsIn(dir)
	if err != nil {
		return st, err
	}
	for i, s := range seqs {
		last := i == len(seqs)-1
		if err := replaySegment(filepath.Join(dir, segmentName(s)), last, &st, fn); err != nil {
			return st, err
		}
	}
	return st, nil
}

func replaySegment(path string, tolerateTorn bool, st *ReplayStats, fn func([]byte, bool) error) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read segment: %w", err)
	}
	off := 0
	for off < len(buf) {
		rec, flag, n, ok := decodeFrame(buf[off:])
		if !ok {
			if tolerateTorn {
				st.Torn += len(buf) - off
				return nil
			}
			return fmt.Errorf("store: corrupt frame at %s+%d", filepath.Base(path), off)
		}
		st.Records++
		st.Bytes += int64(len(rec))
		snap := flag == flagSnapshot
		if snap {
			st.Snapshots++
		}
		if err := fn(rec, snap); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// decodeFrame parses one frame from the head of buf. ok is false for a
// short, oversized or CRC-mismatched frame — indistinguishable from a
// torn write, which is the point.
func decodeFrame(buf []byte) (rec []byte, flag byte, n int, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, 0, false
	}
	ln := binary.LittleEndian.Uint32(buf[0:])
	if ln > maxRecord || int64(frameHeaderLen)+int64(ln) > int64(len(buf)) {
		return nil, 0, 0, false
	}
	end := frameHeaderLen + int(ln)
	if crc32.Checksum(buf[8:end], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, 0, false
	}
	return buf[frameHeaderLen:end], buf[8], end, true
}

// Close makes every written record durable and closes the current
// segment. A Sync that runs after Close returns nil, since everything
// written is then durable; Write and Append return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	err := j.quiesceLocked()
	j.closed = true
	if cerr := j.cur.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment opens segment seq for appending and makes it current.
func (j *Journal) openSegment(seq int) error {
	f, err := os.OpenFile(j.segmentPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	j.cur, j.curSeq, j.curSize = f, seq, 0
	return nil
}

func segmentName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

func (j *Journal) segmentPath(seq int) string { return filepath.Join(j.dir, segmentName(seq)) }

func (j *Journal) segments() ([]int, error) { return segmentsIn(j.dir) }

func segmentsIn(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// validPrefix scans a segment and returns the byte length of its valid
// frame prefix.
func validPrefix(path string) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for off < len(buf) {
		_, _, n, ok := decodeFrame(buf[off:])
		if !ok {
			break
		}
		off += n
	}
	return int64(off), nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
