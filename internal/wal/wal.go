// Package wal implements the durability tier's group-commit write-ahead log
// (DESIGN.md §5.13). Records are framed individually with a length + CRC32
// header so recovery can always identify the longest valid prefix of a torn
// log; commits are redo-after-apply (the serving path logs an operation after
// executing it and acks only once the record is durable per the sync policy).
//
// The log is fed from the WR stage of both serving paths: the per-frame path
// commits one frame's records at a time, the batched pipeline commits a whole
// batch in one Commit call (the LG task). Group commit falls out of the sync
// protocol: concurrent committers pile up behind one leader's fsync and
// return as soon as the synced offset covers their bytes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Record framing: [u32 payload length][u32 CRC32-IEEE of payload][payload].
// Payload: a type byte followed by type-specific fields, all little-endian.
const (
	recSet    byte = 1 // u32 keyLen, u32 valLen, key, value
	recDelete byte = 2 // u32 keyLen, key
	recReply  byte = 3 // u16 addrLen, addr, u64 reqID, u16 nFrames, then per frame u32 len + bytes

	headerSize = 8

	// MaxRecordBytes bounds a single record during replay; a length field
	// beyond it is treated as corruption. The encoder never produces records
	// this large (keys/values are capped well below by the protocol).
	MaxRecordBytes = 16 << 20
)

// File is the write handle the log appends to. It is an interface so the
// faults package can wrap it with a disk fault injector.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch (default) fsyncs before Commit returns: group commit, no
	// acked write is ever lost to a crash.
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every Options.Interval;
	// Commit returns after the write. Bounded loss window, higher throughput.
	SyncInterval
	// SyncOff never fsyncs during serving (Close/Rotate still do). The OS
	// decides when bytes reach disk.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures Open.
type Options struct {
	Policy   SyncPolicy
	Interval time.Duration // SyncInterval flusher period; default 10ms
	// OpenFile opens the append handle for a segment path. Defaults to
	// O_CREATE|O_WRONLY|O_APPEND on the real filesystem; tests and the
	// --fault-disk-* flags substitute instrumented or faulty handles.
	OpenFile func(path string) (File, error)
}

// DefaultOpenFile is the real-filesystem append opener.
func DefaultOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// ErrClosed is returned by Commit after Close.
var ErrClosed = errors.New("wal: closed")

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Records     uint64 // records committed
	Bytes       uint64 // framed bytes committed
	Syncs       uint64 // fsyncs issued (group commit: typically ≪ Commits)
	SyncErrs    uint64
	WriteErrs   uint64 // zero-progress write failures
	ShortWrites uint64 // partial writes that were retried to completion
	Rotations   uint64
}

// Log is an append-only segment with two-stage group commit: Commit stages
// records into an in-memory buffer under a short mutex (pure memcpy, no
// syscalls), then waits for a flush leader to write the whole convoy to the
// file with one write(2) — and, under SyncBatch, for a sync leader to fsync
// it with one fsync. Commit never returns success before its bytes are at
// least in the kernel (page cache), so an acked write under every policy
// survives a process crash; the policy only decides whether the ack also
// waits for the disk.
type Log struct {
	path string
	opts Options

	// Lock order where several are held: syncMu, then flushMu, then mu.

	// mu guards the staging buffer and the logical append cursor.
	mu     sync.Mutex
	buf    []byte // staged records not yet written to the file
	spare  []byte // recycled staging storage for the next convoy
	staged uint64 // logical bytes appended over the log's lifetime
	err    error  // sticky: set when the file tail may hold a torn record
	closed bool

	// flushMu serializes file writes (and segment swap during Rotate);
	// flushed is the logical offset known to be in the kernel.
	flushMu sync.Mutex
	f       File
	flushed atomic.Uint64

	syncMu sync.Mutex
	synced atomic.Uint64 // logical bytes known durable

	records, bytes, syncs, syncErrs, writeErrs, shortWrites, rotations stats.Counter
	fsyncMicros                                                        *stats.Histogram

	stop    chan struct{}
	flushWG sync.WaitGroup
}

// Open opens (creating if absent) the segment at path for appending. The
// caller is responsible for having truncated a recovered segment to its valid
// prefix first (ReplayFile reports it) so new records never land after a torn
// tail.
func Open(path string, opts Options) (*Log, error) {
	if opts.OpenFile == nil {
		opts.OpenFile = DefaultOpenFile
	}
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Millisecond
	}
	f, err := opts.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{path: path, opts: opts, f: f, fsyncMicros: stats.NewHistogram(stats.LatencyBoundsMicros()...)}
	if opts.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.flushWG.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync() //nolint:errcheck // surfaced via SyncErrs
		}
	}
}

// Commit appends the pre-framed records in p (built with AppendSet /
// AppendDelete / AppendReply) and makes them durable per the sync policy.
// records is how many framed records p holds, for accounting. Under
// SyncBatch, Commit returns only once the bytes are fsynced; under the other
// policies, once they are written to the kernel. Either wait is led by
// whichever committer reaches the leader lock first, on behalf of everyone
// staged behind it — one write(2) and at most one fsync per convoy, not per
// commit. A non-nil error means the records must not be acked (the caller
// drops the reply; the client's retry re-executes). Note the staging
// consequence: a commit that failed on a clean zero-progress write error may
// still reach the file through a later convoy's flush — harmless, because
// its ack was dropped and replay is idempotent.
func (l *Log) Commit(p []byte, records int) error {
	if len(p) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.buf == nil && l.spare != nil {
		l.buf, l.spare = l.spare[:0], nil
	}
	l.buf = append(l.buf, p...)
	l.staged += uint64(len(p))
	target := l.staged
	l.mu.Unlock()
	l.records.Add(uint64(records))
	l.bytes.Add(uint64(len(p)))
	if l.opts.Policy == SyncBatch {
		return l.syncTo(target)
	}
	return l.flushTo(target)
}

// Sync flushes and fsyncs everything staged so far, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.staged
	l.mu.Unlock()
	return l.syncTo(target)
}

// flushTo blocks until the kernel-written offset covers target. Whichever
// committer wins flushMu writes the entire staged convoy with one write(2);
// the rest observe the advanced offset and return without a syscall.
func (l *Log) flushTo(target uint64) error {
	if l.flushed.Load() >= target {
		return nil
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushLocked(target)
}

// flushLocked drains the staging buffer into the file. Caller holds flushMu.
func (l *Log) flushLocked(target uint64) error {
	if l.flushed.Load() >= target {
		return nil
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	take := l.buf
	l.buf = nil
	end := l.staged
	l.mu.Unlock()
	if len(take) == 0 {
		return nil
	}
	rem := take
	for len(rem) > 0 {
		n, err := l.f.Write(rem)
		if n > 0 {
			rem = rem[n:]
		}
		if err != nil {
			if n <= 0 {
				l.writeErrs.Inc()
				werr := fmt.Errorf("wal: write: %w", err)
				l.mu.Lock()
				if len(rem) < len(take) {
					// Partial progress stopped mid-convoy: the tail may be
					// torn mid-record and further appends would land after
					// garbage, so the log fails sticky.
					l.err = werr
				} else {
					// Clean zero-progress failure: the file is still at a
					// record boundary. Restage the convoy (appends that
					// arrived meanwhile keep their order behind it) so the
					// next flush leader retries it.
					l.buf = append(take, l.buf...)
				}
				l.mu.Unlock()
				return werr
			}
			l.shortWrites.Inc() // partial write with progress: retry remainder
		}
	}
	l.flushed.Store(end)
	l.mu.Lock()
	if l.buf == nil && cap(take) <= 1<<20 {
		l.spare = take[:0] // recycle the convoy's storage
	}
	l.mu.Unlock()
	return nil
}

// syncTo blocks until the durable offset covers target. Whichever committer
// wins syncMu flushes the staged convoy and fsyncs on behalf of everyone
// queued behind it (group commit); the rest observe the advanced offset and
// return without an fsync of their own.
func (l *Log) syncTo(target uint64) error {
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil
	}
	l.flushMu.Lock()
	if err := l.flushLocked(target); err != nil {
		l.flushMu.Unlock()
		return err
	}
	f := l.f
	w := l.flushed.Load()
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	l.flushMu.Unlock()
	if closed {
		return ErrClosed
	}
	start := time.Now()
	err := f.Sync()
	l.fsyncMicros.Observe(float64(time.Since(start).Microseconds()))
	if err != nil {
		l.syncErrs.Inc()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Inc()
	if w > l.synced.Load() {
		l.synced.Store(w)
	}
	return nil
}

// Rotate makes the current segment immutable: fsyncs and closes it, renames
// it to oldPath, and starts a fresh segment at the log's path. Commits block
// for the duration. The caller owns oldPath afterwards (the snapshotter
// deletes it once a snapshot covering it is durable — WAL truncation).
func (l *Log) Rotate(oldPath string) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	// Drain every staged byte into the old segment before sealing it.
	if err := l.flushLocked(^uint64(0)); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		l.syncErrs.Inc()
		return fmt.Errorf("wal: rotate fsync: %w", err)
	}
	l.synced.Store(l.flushed.Load())
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	if err := os.Rename(l.path, oldPath); err != nil {
		// The old handle is gone; reopen the same segment so the log stays
		// usable (appends continue at the tail).
		f, oerr := l.opts.OpenFile(l.path)
		if oerr != nil {
			l.err = oerr
			return fmt.Errorf("wal: rotate rename: %w (reopen: %v)", err, oerr)
		}
		l.f = f
		return fmt.Errorf("wal: rotate rename: %w", err)
	}
	syncDir(filepath.Dir(l.path))
	f, err := l.opts.OpenFile(l.path)
	if err != nil {
		l.err = fmt.Errorf("wal: rotate reopen: %w", err)
		return l.err
	}
	l.f = f
	l.rotations.Inc()
	return nil
}

// Close fsyncs the tail (all policies — a clean shutdown never loses acked
// writes) and closes the segment. Further Commits fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.flushWG.Wait()
	}
	err := l.Sync()
	l.syncMu.Lock()
	l.flushMu.Lock()
	l.mu.Lock()
	l.closed = true
	if l.err == nil {
		l.err = ErrClosed
	}
	cerr := l.f.Close()
	l.mu.Unlock()
	l.flushMu.Unlock()
	l.syncMu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:     l.records.Load(),
		Bytes:       l.bytes.Load(),
		Syncs:       l.syncs.Load(),
		SyncErrs:    l.syncErrs.Load(),
		WriteErrs:   l.writeErrs.Load(),
		ShortWrites: l.shortWrites.Load(),
		Rotations:   l.rotations.Load(),
	}
}

// FsyncHistogram exposes the fsync latency distribution (microseconds).
func (l *Log) FsyncHistogram() *stats.Histogram { return l.fsyncMicros }

// syncDir fsyncs a directory so a rename within it is durable. Errors are
// ignored: not all filesystems support directory fsync, and the rename itself
// already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}

// --- record encoding ---

// beginRecord reserves the frame header; endRecord back-fills length + CRC.
func beginRecord(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start
}

func endRecord(dst []byte, start int) []byte {
	payload := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendSet appends a framed SET record to dst.
func AppendSet(dst, key, value []byte) []byte {
	dst, start := beginRecord(dst)
	dst = append(dst, recSet)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return endRecord(dst, start)
}

// AppendDelete appends a framed DELETE record to dst.
func AppendDelete(dst, key []byte) []byte {
	dst, start := beginRecord(dst)
	dst = append(dst, recDelete)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	return endRecord(dst, start)
}

// AppendReply appends a framed REPLY record: the at-most-once reply cache
// entry for a write-bearing frame (client address, request id, encoded
// response frames), so retried requests stay exactly-once across a crash.
func AppendReply(dst []byte, addr string, id uint64, frames [][]byte) []byte {
	dst, start := beginRecord(dst)
	dst = append(dst, recReply)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(addr)))
	dst = append(dst, addr...)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(frames)))
	for _, f := range frames {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f)))
		dst = append(dst, f...)
	}
	return endRecord(dst, start)
}

// --- replay ---

// Handler receives decoded records during replay. Slices are views into the
// replayed buffer and must not be retained. Nil callbacks skip that record
// type.
type Handler struct {
	Set    func(key, value []byte)
	Delete func(key []byte)
	Reply  func(addr []byte, id uint64, frames [][]byte)
}

// Replay scans data record by record, invoking the handler for each valid
// record, and stops at the first torn, truncated or corrupt one. It returns
// the byte length of the longest valid prefix and the number of records in
// it. Replay never panics on arbitrary input.
func Replay(data []byte, h Handler) (valid, records int) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < headerSize {
			return off, records
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 1 || n > MaxRecordBytes || headerSize+n > len(rest) {
			return off, records
		}
		payload := rest[headerSize : headerSize+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			return off, records
		}
		if !decodePayload(payload, h) {
			// CRC-valid but undecodable (unknown type or malformed fields):
			// written by something else; stop here rather than guess.
			return off, records
		}
		off += headerSize + n
		records++
	}
}

func decodePayload(p []byte, h Handler) bool {
	switch p[0] {
	case recSet:
		if len(p) < 9 {
			return false
		}
		kl := int(binary.LittleEndian.Uint32(p[1:]))
		vl := int(binary.LittleEndian.Uint32(p[5:]))
		if kl < 0 || vl < 0 || kl+vl != len(p)-9 {
			return false
		}
		if h.Set != nil {
			h.Set(p[9:9+kl], p[9+kl:])
		}
	case recDelete:
		if len(p) < 5 {
			return false
		}
		kl := int(binary.LittleEndian.Uint32(p[1:]))
		if kl != len(p)-5 {
			return false
		}
		if h.Delete != nil {
			h.Delete(p[5:])
		}
	case recReply:
		if len(p) < 3 {
			return false
		}
		al := int(binary.LittleEndian.Uint16(p[1:]))
		off := 3 + al
		if off+10 > len(p) {
			return false
		}
		addr := p[3:off]
		id := binary.LittleEndian.Uint64(p[off:])
		nf := int(binary.LittleEndian.Uint16(p[off+8:]))
		off += 10
		frames := make([][]byte, 0, nf)
		for i := 0; i < nf; i++ {
			if off+4 > len(p) {
				return false
			}
			fl := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if fl < 0 || off+fl > len(p) {
				return false
			}
			frames = append(frames, p[off:off+fl])
			off += fl
		}
		if off != len(p) {
			return false
		}
		if h.Reply != nil {
			h.Reply(addr, id, frames)
		}
	default:
		return false
	}
	return true
}

// ReplayFile replays the segment at path. A missing file is an empty log, not
// an error. It returns the valid prefix length in bytes (the offset the
// caller should truncate to before reopening for append) and the record
// count.
func ReplayFile(path string, h Handler) (validSize int64, records int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	v, n := Replay(data, h)
	return int64(v), n, nil
}
