package dido

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/udpbatch"
)

// Backend is the store surface the server serves. *Store implements it;
// tests and the fault injector substitute their own.
type Backend interface {
	Get(key []byte) ([]byte, bool)
	Set(key, value []byte) error
	Delete(key []byte) bool
}

// GetIntoBackend is an optional Backend extension. When the backend provides
// it (as *Store does), the server serves GETs by appending values into a
// pooled per-frame buffer instead of allocating a copy per query.
type GetIntoBackend interface {
	GetInto(key, dst []byte) ([]byte, bool)
}

// ScanBackend is an optional Backend extension for range scans. When the
// backend provides it (as *Store does when built with StoreConfig.Ordered),
// the server answers SCAN queries; otherwise SCANs get StatusError. ok=false
// means the backend exists but its ordered index is disabled.
type ScanBackend interface {
	Scan(start, end []byte, limit int, fn func(key, value []byte) bool) (int, bool)
}

// ServerOptions tunes the fault-tolerance behavior of a Server. The zero
// value gives production defaults.
type ServerOptions struct {
	// MaxInFlight bounds how many frames are processed concurrently. When
	// the budget is exhausted, new frames are shed immediately with
	// StatusBusy responses instead of queuing unboundedly, keeping the
	// latency of admitted frames bounded under overload. 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// MaxConns bounds concurrently open stream connections across all stream
	// frontends (RESP, memcached text when it shares the gate): connection-
	// scale admission, the stream analogue of MaxInFlight. 0 means
	// DefaultMaxConns; negative disables the limit.
	MaxConns int
	// RESPConnInFlight caps frames in flight per RESP connection; beyond it
	// the frontend sheds with -BUSY without consuming MaxInFlight tokens.
	// 0 means the frontend default (16); negative disables the cap.
	RESPConnInFlight int
	// ReplyCacheSize bounds how many recent request replies are retained
	// (per client address + request ID) to answer retried frames without
	// re-executing them. 0 means DefaultReplyCacheSize; negative disables
	// the cache.
	ReplyCacheSize int
	// WrapConn, when set, wraps the UDP listening socket before serving. This
	// is the hook the fault injector (internal/faults) uses.
	WrapConn func(net.PacketConn) net.PacketConn
	// WrapStreamConn, when set, wraps each accepted RESP connection — the
	// stream-side fault injector hook (stalls, corruption, torn reads).
	WrapStreamConn func(net.Conn) net.Conn
	// Pipeline, when non-nil, serves admitted frames through the batched
	// task-granular pipeline (see server_pipeline.go) instead of one
	// goroutine per frame. Admission, dedupe and at-most-once semantics are
	// identical on both paths.
	Pipeline *PipelineOptions
	// SlowLog, when non-nil, records frames whose admission→response latency
	// exceeds its threshold, on both serving paths. The below-threshold cost
	// is one clock read and an atomic compare per frame (see internal/obs).
	SlowLog *obs.SlowLog
	// Durability, when non-nil with a Dir, attaches the durability tier:
	// startup recovery from snapshot + WAL, write-ahead logging of every
	// acknowledged write on both serving paths, and periodic snapshots that
	// truncate the log (see server_durability.go). Opening it can fail (disk
	// errors, corrupt snapshot) — use NewServerDurable to observe the error.
	Durability *DurabilityOptions
	// NetQueues is how many SO_REUSEPORT ingestion queues the UDP and RESP
	// frontends shard across: per-queue sockets, reader goroutines and
	// reply senders. The kernel hashes client 4-tuples over the queues, so
	// clients must spread source sockets for the sharding to engage (see
	// dido-loadgen's -src-conns). 0/1 means one queue; platforms without
	// SO_REUSEPORT clamp to 1. Under Pipeline.Adapt the cost model sizes
	// the effective count at startup — readers are placed like any other
	// task, and a 1-CPU host gates extra readers off entirely.
	NetQueues int
}

// Defaults for ServerOptions zero fields.
const (
	DefaultMaxInFlight    = 256
	DefaultMaxConns       = 1024
	DefaultReplyCacheSize = 4096
)

// Server is the protocol-independent core of the key-value server: admission
// (frame tokens and the connection gate), at-most-once dedupe through the
// reply cache, durability commit-before-ack, and per-frame vs pipelined
// execution. Transports are frontends (internal/frontend): the batched UDP
// binary protocol (Serve), TCP/RESP2 (ServeRESP), and the memcached text
// protocol (TextServer) all feed this one core. Server implements
// frontend.Core; see the frontend package for the delivery contract.
//
// The serving path is hardened for lossy networks and overload: frames are
// processed by a bounded pool (excess load is shed with StatusBusy), v2
// request IDs deduplicate retried frames through a reply cache, a poisoned
// frame cannot kill a serve loop (per-frame recover), and Close drains
// in-flight frames before sockets are torn down.
type Server struct {
	store   Backend
	getInto GetIntoBackend // non-nil when store implements the fast GET path
	scan    ScanBackend    // non-nil when store implements range scans
	opts    ServerOptions

	mu        sync.Mutex
	fes       []frontend.Frontend    // registered, running frontends
	udpFE     *frontend.UDP          // set by Serve
	respFE    *frontend.RESP         // set by ServeRESP
	statsSrcs []frontend.StatsSource // frontends + attached stream servers
	closed    atomic.Bool

	gate *frontend.Gate // connection-scale admission, shared across streams

	// netQueues is the effective ingestion queue count: the request after
	// platform clamping and (under -adapt) cost-model sizing. Fixed before
	// any frontend listens.
	netQueues int

	pipe *serverPipeline // non-nil when opts.Pipeline is set
	dur  *durability     // non-nil when opts.Durability is set

	tokens  chan struct{}
	wg      sync.WaitGroup
	replies *replyCache
	scratch sync.Pool // *frameScratch: per-frame response/value reuse

	served     stats.Counter
	frames     stats.Counter
	shed       stats.Counter
	replayed   stats.Counter
	dupDropped stats.Counter
	malformed  stats.Counter
	panics     stats.Counter
}

// frameScratch holds the per-frame slices that are pooled across frames so
// the steady-state GET path performs no allocations: the response set and a
// flat arena the backend appends values into.
type frameScratch struct {
	resps []proto.Response
	vals  []byte
}

// NewServer returns a server over b with default options.
func NewServer(b Backend) *Server {
	return NewServerOpts(b, ServerOptions{})
}

// NewServerOpts returns a server over b with the given options. When
// opts.Durability is set, opening the tier can fail; this constructor panics
// on that error — use NewServerDurable to handle it.
func NewServerOpts(b Backend, opts ServerOptions) *Server {
	s, err := newServer(b, opts)
	if err != nil {
		panic("dido: " + err.Error() + " (use NewServerDurable)")
	}
	return s
}

// NewServerDurable returns a server over b, running startup recovery and
// opening the write-ahead log when opts.Durability is set. It is the
// error-returning form of NewServerOpts for durable servers: recovery reads
// disk state and can fail.
func NewServerDurable(b Backend, opts ServerOptions) (*Server, error) {
	return newServer(b, opts)
}

func newServer(b Backend, opts ServerOptions) (*Server, error) {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.MaxConns == 0 {
		opts.MaxConns = DefaultMaxConns
	}
	cacheSize := opts.ReplyCacheSize
	if cacheSize == 0 {
		cacheSize = DefaultReplyCacheSize
	}
	s := &Server{
		store:  b,
		opts:   opts,
		tokens: make(chan struct{}, opts.MaxInFlight),
		gate:   frontend.NewGate(opts.MaxConns),
	}
	if gi, ok := b.(GetIntoBackend); ok {
		s.getInto = gi
	}
	if sb, ok := b.(ScanBackend); ok {
		s.scan = sb
	}
	if cacheSize > 0 {
		s.replies = newReplyCache(cacheSize)
	}
	// Clamp the queue request to the platform before initPipeline: the
	// adaptive path re-sizes it with the cost model from there.
	s.netQueues = udpbatch.MaxQueues(opts.NetQueues)
	s.scratch.New = func() any { return &frameScratch{} }
	// Durability opens before the pipeline: recovery must finish before any
	// frame can execute, and initPipeline arms its LG hook only when s.dur
	// is already set.
	if opts.Durability != nil && opts.Durability.Dir != "" {
		dur, err := openDurability(b, s.replies, *opts.Durability)
		if err != nil {
			return nil, err
		}
		s.dur = dur
	}
	if opts.Pipeline != nil {
		s.initPipeline(opts.Pipeline)
	}
	return s, nil
}

// register publishes a listening frontend so Close can reach it, unless the
// server already closed (then the frontend is torn back down and false is
// returned — the caller should not Run it).
func (s *Server) register(fe frontend.Frontend) bool {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		fe.Shutdown()
		return false
	}
	s.fes = append(s.fes, fe)
	s.statsSrcs = append(s.statsSrcs, fe)
	s.mu.Unlock()
	return true
}

// Serve listens on addr (e.g. "127.0.0.1:11211") for the batched UDP binary
// protocol and processes frames until Close. It blocks; run it in a
// goroutine. Serve returns once Close has stopped frame production.
func (s *Server) Serve(addr string) error {
	fe := frontend.NewUDP(frontend.UDPOptions{
		WrapConn:     s.opts.WrapConn,
		Batched:      s.pipe != nil,
		Dedupe:       s.replies != nil,
		MeasureParse: s.pipe != nil && s.pipe.measureParse,
		StampStart:   s.opts.SlowLog != nil,
		Queues:       s.netQueues,
	})
	if err := fe.Listen(addr); err != nil {
		return err
	}
	s.mu.Lock()
	s.udpFE = fe
	s.mu.Unlock()
	if !s.register(fe) {
		return nil
	}
	return fe.Run(s)
}

// ServeRESP listens on addr (e.g. "127.0.0.1:6379") for RESP2 over TCP and
// serves it through the same core — same admission, durability and serving
// paths as the UDP frontend. It blocks; run it in a goroutine (concurrently
// with Serve when both protocols are wanted).
func (s *Server) ServeRESP(addr string) error {
	fe := frontend.NewRESP(frontend.RESPOptions{
		Gate:            s.gate,
		MaxConnInFlight: s.opts.RESPConnInFlight,
		WrapConn:        s.opts.WrapStreamConn,
		MeasureParse:    s.pipe != nil && s.pipe.measureParse,
		StampStart:      s.opts.SlowLog != nil,
		Listeners:       s.netQueues,
	})
	if err := fe.Listen(addr); err != nil {
		return err
	}
	s.mu.Lock()
	s.respFE = fe
	s.mu.Unlock()
	if !s.register(fe) {
		return nil
	}
	return fe.Run(s)
}

// --- frontend.Core ---

// Admit runs pre-parse admission: reply-cache dedupe, then the token gate.
// A retried frame whose reply was already computed is answered from the
// cache without re-executing it or consuming a token; this is what makes
// client retries of SET safe (at-most-once execution). A retry that lands
// while the original frame is still executing is dropped — admitting it
// would re-execute the SET before the reply cache is populated, reopening
// the at-most-once hole. The client simply retries again and is then
// answered from the cache.
func (s *Server) Admit(f *frontend.Frame) bool {
	if f.AKey != "" && f.ReqID != 0 && s.replies != nil {
		frames, state := s.replies.begin(f.AKey, f.ReqID)
		switch state {
		case replyCached:
			// Counted before the send, so a client holding the reply
			// always sees the replay in Stats.
			s.replayed.Inc()
			f.R.Deliver(f, frames)
			f.R.Release(f)
			return false
		case replyInFlight:
			s.dupDropped.Inc()
			f.R.Release(f)
			return false
		case replyAdmitted:
			f.Tracked = true
		}
	}
	select {
	case s.tokens <- struct{}{}:
	default:
		// Overload: shed the whole frame now rather than queuing it. Busy
		// replies are never cached: a later retry should be re-admitted.
		if f.Tracked {
			s.replies.abort(f.AKey, f.ReqID)
			f.Tracked = false
		}
		s.shed.Inc()
		f.R.Busy(f)
		f.R.Release(f)
		return false
	}
	s.wg.Add(1)
	return true
}

// Submit executes an admitted, parsed frame on the configured serving path.
func (s *Server) Submit(f *frontend.Frame) {
	s.frames.Inc()
	if len(f.Queries) == 0 {
		// Nothing to execute or log (RESP PING/COMMAND runs, empty UDP
		// frames): answer inline instead of riding a pipeline batch.
		s.finishDirect(f)
		return
	}
	if s.pipe != nil {
		s.submitPipelined(f)
		return
	}
	go s.executeFrame(f)
}

// Cancel aborts an admitted frame whose payload failed to parse.
func (s *Server) Cancel(f *frontend.Frame) {
	s.malformed.Inc()
	if f.Tracked {
		s.replies.abort(f.AKey, f.ReqID)
		f.Tracked = false
	}
	<-s.tokens
	s.wg.Done()
	f.R.Release(f)
}

// Malformed counts a frame dropped by a frontend before admission.
func (s *Server) Malformed() { s.malformed.Inc() }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.closed.Load() }

// finishDirect answers a query-less admitted frame without touching the
// execution paths: encode (the frame may still carry protocol-level replies,
// e.g. RESP PING), settle dedupe state, deliver, release.
func (s *Server) finishDirect(f *frontend.Frame) {
	units := f.R.Encode(f, nil)
	if f.Tracked {
		s.replies.finish(f.AKey, f.ReqID, units)
		f.Tracked = false
	}
	f.R.Deliver(f, units)
	<-s.tokens
	s.wg.Done()
	f.R.Release(f)
}

// executeFrame processes one admitted frame in its own goroutine (the
// unpipelined serving path).
func (s *Server) executeFrame(f *frontend.Frame) {
	defer s.wg.Done()
	defer func() { <-s.tokens }()
	defer f.R.Release(f)
	if f.Tracked {
		// Clear the in-flight marker when the frame dies before its reply is
		// cached (panic, failed commit); once finish has cached the reply,
		// this is a no-op.
		defer s.replies.abort(f.AKey, f.ReqID)
	}
	sc := s.scratch.Get().(*frameScratch)
	defer s.scratch.Put(sc)
	// One poisoned frame must not kill a serve loop: the datagram client
	// times out and retries, the stream client gets in-band errors; everyone
	// else is unaffected.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			f.R.Fail(f, "internal error")
		}
	}()
	resps := s.process(f.Queries, sc)
	units := f.R.Encode(f, resps)
	if s.dur != nil {
		// Redo-after-apply: the writes already executed; their records must
		// be durable before the ack. The response units are encoded first so
		// the REPLY record binds the exact reply the client will see.
		if !s.dur.commitFrame(f.Queries, resps, f.AKey, f.ReqID, f.Tracked, units) {
			// Commit failed: drop the ack (the deferred abort clears the
			// in-flight marker) so the client retries instead of trusting a
			// write that never reached disk.
			sc.resps = resps[:0]
			f.R.Fail(f, "wal commit failed")
			return
		}
	}
	// Cache the reply before sending it. A retry that arrives once the client
	// has the reply must find it cached, not in flight (dropped unanswered).
	// The frame has executed either way, so the reply is cached even if the
	// send fails: the retry then replays it instead of executing again.
	if f.Tracked {
		s.replies.finish(f.AKey, f.ReqID, units)
	}
	f.R.Deliver(f, units)
	sc.resps = resps[:0]
	if sl := s.opts.SlowLog; sl != nil && len(f.Queries) > 0 {
		sl.Observe(time.Since(f.Start), len(f.Queries), uint8(f.Queries[0].Op), f.Queries[0].Key)
	}
}

// process executes one frame's queries, reusing sc's pooled response slice
// and value arena. Values are appended into sc.vals and responses reference
// subslices of it; if an append grows the arena, earlier responses keep
// pointing into the previous backing array, which remains intact — so the
// references stay valid for the lifetime of the frame.
func (s *Server) process(queries []proto.Query, sc *frameScratch) []proto.Response {
	resps := sc.resps[:0]
	sc.vals = sc.vals[:0]
	for _, q := range queries {
		switch q.Op {
		case proto.OpGet:
			if s.getInto != nil {
				mark := len(sc.vals)
				if out, ok := s.getInto.GetInto(q.Key, sc.vals); ok {
					sc.vals = out
					v := sc.vals[mark:len(sc.vals):len(sc.vals)]
					resps = append(resps, proto.Response{Status: proto.StatusOK, Value: v})
				} else {
					resps = append(resps, proto.Response{Status: proto.StatusNotFound})
				}
			} else if v, ok := s.store.Get(q.Key); ok {
				resps = append(resps, proto.Response{Status: proto.StatusOK, Value: v})
			} else {
				resps = append(resps, proto.Response{Status: proto.StatusNotFound})
			}
		case proto.OpSet:
			if err := s.store.Set(q.Key, q.Value); err != nil {
				resps = append(resps, proto.Response{Status: proto.StatusError})
			} else {
				resps = append(resps, proto.Response{Status: proto.StatusOK})
			}
		case proto.OpDelete:
			if s.store.Delete(q.Key) {
				resps = append(resps, proto.Response{Status: proto.StatusOK})
			} else {
				resps = append(resps, proto.Response{Status: proto.StatusNotFound})
			}
		case proto.OpScan:
			resps = append(resps, s.scanResponse(q, sc))
		}
		s.served.Inc()
	}
	return resps
}

// scanResponse executes one SCAN query on the per-frame path, building the
// result block in the frame's pooled value arena. SCANs on a backend without
// range scans (or with the ordered index disabled), and SCANs with a
// malformed argument, answer StatusError.
func (s *Server) scanResponse(q proto.Query, sc *frameScratch) proto.Response {
	if s.scan == nil {
		return proto.Response{Status: proto.StatusError}
	}
	limit, end, err := proto.ParseScanArg(q.Value)
	if err != nil {
		return proto.Response{Status: proto.StatusError}
	}
	blockStart := len(sc.vals)
	dst, mark := proto.BeginScanResult(sc.vals)
	entries := 0
	if _, ok := s.scan.Scan(q.Key, end, limit, func(k, v []byte) bool {
		dst = proto.AppendScanEntry(dst, k, v)
		entries++
		return len(dst)-blockStart < proto.MaxScanResultBytes
	}); !ok {
		// Ordered index disabled: sc.vals was never reassigned, so the
		// speculative header is simply never published.
		return proto.Response{Status: proto.StatusError}
	}
	proto.FinishScanResult(dst, mark, entries)
	sc.vals = dst
	return proto.Response{
		Status: proto.StatusOK,
		Value:  sc.vals[blockStart:len(sc.vals):len(sc.vals)],
	}
}

// Addr returns the UDP frontend's bound address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	fe := s.udpFE
	s.mu.Unlock()
	if fe == nil {
		return nil
	}
	return fe.Addr()
}

// RESPAddr returns the RESP frontend's bound address, or nil before
// ServeRESP.
func (s *Server) RESPAddr() net.Addr {
	s.mu.Lock()
	fe := s.respFE
	s.mu.Unlock()
	if fe == nil {
		return nil
	}
	return fe.Addr()
}

// ConnGate exposes the server's connection-scale admission gate so other
// stream servers (the memcached text frontend) can share its budget and
// surface their sheds in ServerStats.
func (s *Server) ConnGate() *frontend.Gate { return s.gate }

// AttachFrontendStats registers an external per-frontend stats source (e.g.
// the text server) for the /metrics frontend breakdown.
func (s *Server) AttachFrontendStats(src frontend.StatsSource) {
	s.mu.Lock()
	s.statsSrcs = append(s.statsSrcs, src)
	s.mu.Unlock()
}

// NetQueues reports the effective ingestion queue count the frontends shard
// across: the configured request after platform clamping and, under
// adaptive pipelining, cost-model sizing.
func (s *Server) NetQueues() int { return s.netQueues }

// FrontendQueueStats returns the named frontend's per-ingestion-queue
// counters, or nil when that frontend is not serving or does not shard.
// The multi-queue tests and benches use it to verify the kernel actually
// spread flows across queues.
func (s *Server) FrontendQueueStats(name string) []frontend.QueueStats {
	s.mu.Lock()
	srcs := make([]frontend.StatsSource, len(s.statsSrcs))
	copy(srcs, s.statsSrcs)
	s.mu.Unlock()
	for _, src := range srcs {
		if src.Name() != name {
			continue
		}
		if qs, ok := src.(frontend.QueueStatsSource); ok {
			return qs.QueueStats()
		}
	}
	return nil
}

// Served returns the number of queries processed.
func (s *Server) Served() uint64 { return s.served.Load() }

// ServerStats is a snapshot of the server's serving counters. Each field is
// individually monotonic (atomically read), but the struct is not a
// consistent cut: counters keep advancing while the snapshot is assembled,
// so cross-field arithmetic (e.g. Served/Frames) is approximate under load.
type ServerStats struct {
	// Served counts queries executed; Frames counts frames executed.
	Served, Frames uint64
	// Shed counts frames rejected with StatusBusy under overload.
	Shed uint64
	// Replayed counts retried frames answered from the reply cache.
	Replayed uint64
	// DupDropped counts duplicate frames dropped while the original request
	// was still executing (at-most-once in-flight tracking).
	DupDropped uint64
	// Malformed counts dropped undecodable or corrupted frames.
	Malformed uint64
	// Panics counts frames whose processing panicked (and was contained).
	Panics uint64
	// ConnsShed counts stream connections rejected over the MaxConns budget
	// (across every frontend sharing the gate).
	ConnsShed uint64
	// InFlight is the number of frames currently being processed.
	InFlight int
}

// Stats returns current serving counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Served:     s.served.Load(),
		Frames:     s.frames.Load(),
		Shed:       s.shed.Load(),
		Replayed:   s.replayed.Load(),
		DupDropped: s.dupDropped.Load(),
		Malformed:  s.malformed.Load(),
		Panics:     s.panics.Load(),
		ConnsShed:  s.gate.Shed(),
		InFlight:   len(s.tokens),
	}
}

// Close stops the server: it interrupts every frontend (no further frame can
// be admitted), drains in-flight frames so they still get their responses,
// then tears transports down. Close is idempotent.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	fes := make([]frontend.Frontend, len(s.fes))
	copy(fes, s.fes)
	s.mu.Unlock()
	// Interrupt blocks until the frontend's read loops exited, so after this
	// loop nothing can race wg.Add against the Wait below.
	for _, fe := range fes {
		fe.Interrupt()
	}
	s.wg.Wait()
	// The pipeline runner shuts down after the drain: wg.Wait needs the
	// runner still executing. Its Close is idempotent — it also runs when
	// Serve was never called.
	if s.pipe != nil {
		s.pipe.runner.Close()
	}
	for _, fe := range fes {
		fe.Shutdown()
	}
	if s.dur != nil {
		return s.dur.close()
	}
	return nil
}

// replyKey identifies a request across retries: the client's address plus
// the frame's request ID.
type replyKey struct {
	addr string
	id   uint64
}

// replyCache retains the encoded response frames of recent requests so a
// retried (duplicate) frame is answered without re-execution, and tracks
// which requests are currently executing so a retry cannot race the original
// into a second execution. Eviction is FIFO over distinct requests.
type replyCache struct {
	mu       sync.Mutex
	max      int
	m        map[replyKey][][]byte
	fifo     []replyKey
	inflight map[replyKey]struct{}
}

// begin outcomes.
const (
	replyAdmitted = iota // no reply yet and not executing: caller may execute
	replyCached          // reply available: answer from the returned frames
	replyInFlight        // original still executing: drop the duplicate
)

func newReplyCache(max int) *replyCache {
	return &replyCache{
		max:      max,
		m:        make(map[replyKey][][]byte, max),
		inflight: make(map[replyKey]struct{}),
	}
}

// begin classifies an arriving (addr, id) frame. On replyAdmitted the pair is
// marked in-flight; the caller must hand it to finish or abort eventually.
func (rc *replyCache) begin(addr string, id uint64) ([][]byte, int) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if frames, ok := rc.m[k]; ok {
		return frames, replyCached
	}
	if _, ok := rc.inflight[k]; ok {
		return nil, replyInFlight
	}
	rc.inflight[k] = struct{}{}
	return nil, replyAdmitted
}

// finish records the computed reply and clears the in-flight marker in one
// step, so no retry can slip between execution and cache fill.
func (rc *replyCache) finish(addr string, id uint64, frames [][]byte) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	delete(rc.inflight, k)
	if _, ok := rc.m[k]; ok {
		rc.m[k] = frames // recomputed after cache eviction: same reply
		return
	}
	rc.m[k] = frames
	rc.fifo = append(rc.fifo, k)
	for len(rc.fifo) > rc.max {
		delete(rc.m, rc.fifo[0])
		rc.fifo = rc.fifo[1:]
	}
}

// abort clears the in-flight marker without recording a reply (shed frame,
// malformed payload, failed send, contained panic). Idempotent.
func (rc *replyCache) abort(addr string, id uint64) {
	k := replyKey{addr, id}
	rc.mu.Lock()
	delete(rc.inflight, k)
	rc.mu.Unlock()
}

// ClientConn is the conn surface the Client drives; *net.UDPConn implements
// it, and the fault injector's wrapper does too.
type ClientConn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// ClientOptions tunes the client's fault-tolerance behavior. The zero value
// gives production defaults.
type ClientOptions struct {
	// Timeout is the per-attempt deadline for assembling a complete
	// response set. 0 means DefaultClientTimeout.
	Timeout time.Duration
	// Retries is how many times Do resends an unanswered frame before
	// giving up with ErrTimeout (or ErrBusy). 0 means
	// DefaultClientRetries; negative disables retries.
	Retries int
	// Backoff is the initial delay before the first resend; it doubles per
	// retry (±50% jitter) up to MaxBackoff. Zero values mean the defaults.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed makes the request-ID sequence and backoff jitter deterministic
	// for tests; 0 derives a seed from the clock.
	Seed int64
	// WrapConn, when set, wraps the dialed socket — the client-side hook
	// for the fault injector.
	WrapConn func(*net.UDPConn) ClientConn
}

// Defaults for ClientOptions zero fields.
const (
	DefaultClientTimeout    = 500 * time.Millisecond
	DefaultClientRetries    = 7
	DefaultClientBackoff    = 10 * time.Millisecond
	DefaultClientMaxBackoff = 320 * time.Millisecond
)

// Client is a UDP client for a Server. It batches queries per call: Do sends
// one frame and reassembles the response frames, retrying with exponential
// backoff when datagrams are lost. Client is not safe for concurrent use;
// create one per goroutine.
type Client struct {
	conn ClientConn
	opts ClientOptions
	buf  []byte
	out  []byte

	scratch []proto.Response
	nextID  uint64
	rng     *rand.Rand

	retries  stats.Counter
	timeouts stats.Counter
	busy     stats.Counter
}

// Dial connects to a server at addr with default options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOptions{})
}

// DialOpts connects to a server at addr with the given options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultClientTimeout
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultClientRetries
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultClientBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultClientMaxBackoff
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	var cc ClientConn = conn
	if opts.WrapConn != nil {
		cc = opts.WrapConn(conn)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Client{
		conn:   cc,
		opts:   opts,
		buf:    make([]byte, proto.MaxFrameBytes),
		rng:    rng,
		nextID: rng.Uint64() | 1, // request IDs are never 0
	}
	return c, nil
}

// Typed client errors. Do never returns partial results: on any error the
// returned responses are nil.
var (
	// ErrTimeout reports that no complete response set arrived within the
	// configured timeout and retries.
	ErrTimeout = errors.New("dido: request timed out after retries")
	// ErrBusy reports that the server shed the request under overload for
	// every attempt.
	ErrBusy = errors.New("dido: server busy")
)

// ErrShortResponse reports a response frame with fewer entries than queries.
//
// Deprecated: the v2 protocol reassembles responses by offset and retries
// missing ones; Do now returns ErrTimeout instead. Kept for API stability.
var ErrShortResponse = errors.New("dido: response frame shorter than query frame")

// ClientStats is a snapshot of the client's resilience counters. Like
// ServerStats, each field is individually monotonic but the struct is not a
// consistent cut across fields.
type ClientStats struct {
	// Retries counts frame resends (timeout- or busy-triggered).
	Retries uint64
	// Timeouts counts Do calls that failed with ErrTimeout.
	Timeouts uint64
	// BusyRounds counts attempts that were shed by the server.
	BusyRounds uint64
}

// Stats returns current client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Retries:    c.retries.Load(),
		Timeouts:   c.timeouts.Load(),
		BusyRounds: c.busy.Load(),
	}
}

// Do sends queries as one v2 frame and returns the per-query responses, in
// query order. The server may split large response sets across several
// datagrams and the network may drop, duplicate or reorder them; Do
// reassembles by offset and resends the frame (same request ID) with
// exponential backoff until every response arrived or the retry budget is
// exhausted. Resends are idempotency-safe: the server deduplicates by
// request ID, so a SET is re-executed only if it was never acknowledged.
//
// On error the returned responses are always nil — there are no partial
// results, and returned values never alias the receive buffer. Value slices
// in successful responses are copies and remain valid after the next Do.
func (c *Client) Do(queries []proto.Query) ([]proto.Response, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	c.out = proto.EncodeFrameV2(c.out[:0], id, queries)

	resps := make([]proto.Response, len(queries))
	got := make([]bool, len(queries))
	need := len(queries)
	sawBusy := false
	backoff := c.opts.Backoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			jitter := time.Duration(c.rng.Int63n(int64(backoff))) - backoff/2
			time.Sleep(backoff + jitter)
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
		}
		if _, err := c.conn.Write(c.out); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.opts.Timeout)
		sawBusy = false
		for need > 0 {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, err := c.conn.Read(c.buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // attempt over; maybe retry
				}
				return nil, err
			}
			rs, rid, off, perr := proto.ParseResponseFrameID(c.buf[:n], c.scratch[:0])
			c.scratch = rs[:0]
			if perr != nil || rid != id {
				continue // corrupted or stale frame: ignore it
			}
			if len(rs) > 0 && rs[0].Status == proto.StatusBusy {
				// The server shed this attempt; no more frames are coming.
				sawBusy = true
				break
			}
			for i := range rs {
				idx := off + i
				if idx < 0 || idx >= len(queries) || got[idx] {
					continue // duplicate or nonsense offset
				}
				r := rs[i]
				// Copy the value out of the receive buffer before reuse.
				if len(r.Value) > 0 {
					r.Value = append([]byte(nil), r.Value...)
				}
				resps[idx] = r
				got[idx] = true
				need--
			}
		}
		if need == 0 {
			return resps, nil
		}
		if sawBusy {
			c.busy.Inc()
		}
		if attempt >= c.opts.Retries {
			if sawBusy {
				return nil, ErrBusy
			}
			c.timeouts.Inc()
			return nil, ErrTimeout
		}
	}
}

// Get fetches one key.
func (c *Client) Get(key []byte) ([]byte, bool, error) {
	resps, err := c.Do([]proto.Query{{Op: proto.OpGet, Key: key}})
	if err != nil {
		return nil, false, err
	}
	if resps[0].Status != proto.StatusOK {
		return nil, false, nil
	}
	return resps[0].Value, true, nil
}

// Set stores one key-value pair.
func (c *Client) Set(key, value []byte) error {
	resps, err := c.Do([]proto.Query{{Op: proto.OpSet, Key: key, Value: value}})
	if err != nil {
		return err
	}
	if resps[0].Status != proto.StatusOK {
		return errors.New("dido: server rejected SET")
	}
	return nil
}

// Delete removes one key, reporting whether it existed.
func (c *Client) Delete(key []byte) (bool, error) {
	resps, err := c.Do([]proto.Query{{Op: proto.OpDelete, Key: key}})
	if err != nil {
		return false, err
	}
	return resps[0].Status == proto.StatusOK, nil
}

// Scan fetches up to limit entries with key in [start, end) in ascending key
// order (limit <= 0 means the server default; the server clamps oversized
// limits and truncates oversized result blocks — paginate by re-issuing with
// start = last key + one zero byte). It fails when the server's store has no
// ordered index.
func (c *Client) Scan(start, end []byte, limit int) ([]ScanEntry, error) {
	resps, err := c.Do([]proto.Query{proto.ScanQuery(start, end, limit)})
	if err != nil {
		return nil, err
	}
	if resps[0].Status != proto.StatusOK {
		return nil, errors.New("dido: server rejected SCAN")
	}
	return proto.ParseScanResult(resps[0].Value)
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.conn.Close() }

// Query re-exports the wire query type for clients building batches.
type Query = proto.Query

// Response re-exports the wire response type.
type Response = proto.Response

// ScanEntry re-exports one decoded SCAN result entry.
type ScanEntry = proto.ScanEntry

// Op and Status re-export the wire enums alongside their constants below.
type (
	Op     = proto.Op
	Status = proto.Status
)

// Re-exported query ops and statuses.
const (
	OpGet          = proto.OpGet
	OpSet          = proto.OpSet
	OpDelete       = proto.OpDelete
	OpScan         = proto.OpScan
	StatusOK       = proto.StatusOK
	StatusNotFound = proto.StatusNotFound
	StatusError    = proto.StatusError
	StatusBusy     = proto.StatusBusy
)
