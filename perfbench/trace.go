package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	dido "repro"
	"repro/internal/apu"
	"repro/internal/costmodel"
	"repro/internal/cuckoo"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/store"
	"repro/internal/task"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans stay in memory during the run and are written out
// as JSON lines when it ends.
type span struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	At    int64  `json:"at_ns"` // start, from the run's first span clock
	Dur   int64  `json:"dur_ns"`
	Units int    `json:"units"` // queries, keys or entries the call covered
}

type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// add records a span that started at start and ends now, returning its
// duration.
func (l *spanLog) add(layer, op string, start time.Time, units int) time.Duration {
	d := time.Since(start)
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, op, start.Sub(l.t0).Nanoseconds(), d.Nanoseconds(), units})
	l.mu.Unlock()
	return d
}

// sum totals the duration, units and count of layer/op spans.
func (l *spanLog) sum(layer, op string) (ns float64, units, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Layer == layer && s.Op == op {
			ns += float64(s.Dur)
			units += s.Units
			n++
		}
	}
	return
}

// nsPerUnit is the mean cost of layer/op per covered unit.
func (l *spanLog) nsPerUnit(layer, op string) float64 {
	ns, units, _ := l.sum(layer, op)
	if units == 0 {
		return 0
	}
	return ns / float64(units)
}

// meanUS is the mean cost of one layer/op call in µs.
func (l *spanLog) meanUS(layer, op string) float64 {
	ns, _, n := l.sum(layer, op)
	if n == 0 {
		return 0
	}
	return ns / float64(n) / 1e3
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a snapshot of every public counter the traced run reads.
type counters struct {
	at       time.Time
	srv      dido.ServerStats
	pipe     dido.LivePipelineStats
	replans  uint64
	store    dido.StoreStats
	dur      dido.DurabilityStats
	sendErrs uint64
	allocB   float64 // cumulative heap bytes allocated
	gcCPU    float64 // cumulative GC CPU seconds
	totCPU   float64 // cumulative CPU seconds
}

var rtMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func snapCounters(e *env) counters {
	c := counters{at: time.Now(), srv: e.srv.Stats(), store: e.store.Stats()}
	c.pipe, _ = e.srv.PipelineStats()
	c.replans, _ = e.srv.PipelineReplans()
	c.dur, _ = e.srv.DurabilityStats()
	for _, q := range e.srv.FrontendQueueStats("udp") {
		c.sendErrs += q.SendErrs
	}
	s := make([]metrics.Sample, len(rtMetrics))
	for i, n := range rtMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	c.allocB, c.gcCPU, c.totCPU = val(s[0].Value), val(s[1].Value), val(s[2].Value)
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced runs the per-layer trace: the socket rung (the real server with its
// controller trace ring on), the server rung (the same frames through
// Server.Admit/Submit with an in-memory responder), then a store, a pipeline
// and a control-plane rung on a store preloaded like the workload, and an
// untraced saturation run for the trace overhead.
func (b *bench) traced() (Result, error) {
	sp := &spanLog{t0: time.Now()}
	m := map[string]Metric{}
	put := func(name, unit string, v float64) { m[name] = Metric{v, unit} }

	// Socket and server rungs on the traced server.
	e, err := b.setupEnv(true)
	if err != nil {
		return Result{}, err
	}
	runtime.GC() // as b.phase does, but before the counters' baseline
	c0 := snapCounters(e)
	sat, err := b.measure(e, Phase{Name: "sat", Window: b.w.Window, Warm: b.split(0.03), Dur: b.split(0.1)})
	if err != nil {
		e.close()
		return Result{}, err
	}
	cSat := snapCounters(e)
	lo, err := b.phase(e, Phase{Name: "lo", Rate: b.w.LoRate, Warm: b.split(0.02), Dur: b.split(0.15)})
	if err != nil {
		e.close()
		return Result{}, err
	}
	rungPh := Phase{Name: "rung", Rate: b.w.LoRate, Warm: b.split(0.02), Dur: b.split(0.15)}
	rung := b.serverRung(e, sp, rungPh)
	b.record(rungPh, rung.res)
	c1 := snapCounters(e)
	ring := e.trace.Snapshot()
	tmax := 0.0
	if sq, ok := e.srv.PipelineStageQuantiles(0.99); ok {
		for _, q := range sq {
			if len(q) > 0 && q[0] > tmax {
				tmax = q[0]
			}
		}
	}
	e.close()

	// Untraced saturation for the overhead comparison.
	e, err = b.setupEnv(false)
	if err != nil {
		return Result{}, err
	}
	satU, err := b.phase(e, Phase{Name: "sat-untraced", Window: b.w.Window, Warm: b.split(0.03), Dur: b.split(0.1)})
	e.close()
	if err != nil {
		return Result{}, err
	}

	// Store, pipeline and control rungs on a store preloaded like the
	// workload.
	st := store.New(store.Config{MemoryBytes: b.w.Arena, Ordered: true})
	if err := preload(b.w, storeSetter{st}); err != nil {
		return Result{}, err
	}
	qPerBatch := ratio(float64(c1.pipe.Queries-c0.pipe.Queries), float64(c1.pipe.Batches-c0.pipe.Batches))
	storeWrong, frameNs := b.storeRung(st, sp, rung, qPerBatch)
	pipeWrong, runner := b.pipelineRung(st, sp, b.split(0.05))
	b.controlRung(st, sp, ring)

	// frontend
	put("frontend.parse_ns_per_q", "ns", sp.nsPerUnit("frontend", "parse"))
	loP50, _ := percentile(lo.Lat, lo.FailLat, 50)
	rungP50, _ := percentile(rung.res.Lat, rung.res.FailLat, 50)
	put("frontend.socket_us", "us", loP50-rungP50)
	put("frontend.send_errs", "count", float64(c1.sendErrs))

	// server
	var core []float64
	for fi, lat := range rung.lat {
		if lat > 0 && fi < len(frameNs) && frameNs[fi] > 0 {
			core = append(core, lat-frameNs[fi]/1e3)
		}
	}
	put("server.core_us", "us", median(core))
	dShed, dFrames := float64(c1.srv.Shed-c0.srv.Shed), float64(c1.srv.Frames-c0.srv.Frames)
	put("server.shed_frac", "ratio", ratio(dShed, dShed+dFrames))

	// pipeline
	dBatches := float64(c1.pipe.Batches - c0.pipe.Batches)
	put("pipeline.q_per_batch", "queries", qPerBatch)
	var walls, errs []float64
	var rvNs, sdNs, lgNs []float64
	for _, ev := range ring {
		walls = append(walls, float64(ev.RealizedWall.Nanoseconds())/1e3)
		if ev.PredictedTmax > 0 && ev.RealizedTmax > 0 {
			errs = append(errs, 100*math.Abs(float64(ev.PredictedTmax-ev.RealizedTmax))/float64(ev.RealizedTmax))
		}
		if p := ev.Profile; p.N > 0 {
			if p.RVUnitNanos > 0 {
				rvNs = append(rvNs, p.RVUnitNanos)
			}
			if p.SDUnitNanos > 0 {
				sdNs = append(sdNs, p.SDUnitNanos)
			}
			if p.LGUnitNanos > 0 {
				lgNs = append(lgNs, p.LGUnitNanos)
			}
		}
	}
	wp50, _ := percentile(walls, nil, 50)
	wp99, _ := percentile(walls, nil, 99)
	put("pipeline.batch_wall_p50_us", "us", wp50)
	put("pipeline.batch_wall_p99_us", "us", wp99)
	put("pipeline.tmax_p99_us", "us", tmax)
	// RV, SD and LG come from the server's own measured profiles (real
	// sockets and WAL); the other tasks from the pipeline rung's runner.
	taskNs := map[task.ID]float64{task.RV: median(rvNs), task.SD: median(sdNs), task.LG: median(lgNs)}
	for _, id := range []task.ID{task.INSearch, task.INInsert, task.INDelete, task.KC, task.WR} {
		taskNs[id] = runner.TaskHistogram(id).Mean()
	}
	for _, id := range pipelineTasks {
		put("pipeline.task_ns_per_q."+id.String(), "ns", taskNs[id])
	}
	put("pipeline.wide_frac", "ratio", ratio(float64(c1.pipe.WideBatches-c0.pipe.WideBatches), dBatches))
	put("pipeline.reconfigs", "count", float64(c1.pipe.Reconfigs-c0.pipe.Reconfigs))

	// control
	observeUS := sp.meanUS("control", "observe")
	bestUS := sp.meanUS("control", "best")
	dReplans := float64(c1.replans - c0.replans)
	put("control.observe_us", "us", observeUS)
	put("control.best_us", "us", bestUS)
	put("control.stats_snapshot_us", "us", sp.meanUS("control", "stats_snapshot"))
	satBatchesPerS := ratio(float64(cSat.pipe.Batches-c0.pipe.Batches), cSat.at.Sub(c0.at).Seconds())
	perBatchUS := observeUS + bestUS*ratio(dReplans, dBatches)
	put("control.cpu_frac", "ratio", perBatchUS*1e-6*satBatchesPerS/float64(runtime.NumCPU()))
	put("control.replans", "count", dReplans)
	put("control.tmax_err_pct", "%", median(errs))

	// store and cuckoo
	put("store.get_ns", "ns", sp.nsPerUnit("store", "get"))
	put("store.getbatch_ns_per_key", "ns", sp.nsPerUnit("store", "getbatch"))
	put("store.scan_ns_per_entry", "ns", sp.nsPerUnit("store", "scan"))
	put("store.set_ns", "ns", sp.nsPerUnit("store", "set"))
	dSets := float64(c1.store.Sets - c0.store.Sets)
	put("store.evictions_per_set", "ratio", ratio(float64(c1.store.Evictions-c0.store.Evictions), dSets))
	put("store.hit_frac", "ratio", ratio(float64(c1.store.Hits-c0.store.Hits), float64(c1.store.Gets-c0.store.Gets)))
	put("cuckoo.searchbatch_ns_per_key", "ns", sp.nsPerUnit("cuckoo", "searchbatch"))
	put("cuckoo.load_factor", "ratio", c1.store.IndexLoadFactor)

	// wal: zero on workloads without a WAL (the tier is off).
	dServed := float64(c1.srv.Served - c0.srv.Served)
	dRec := float64(c1.dur.WAL.Records - c0.dur.WAL.Records)
	put("wal.records_per_q", "records", ratio(dRec, dServed))
	put("wal.bytes_per_q", "B", ratio(float64(c1.dur.WAL.Bytes-c0.dur.WAL.Bytes), dServed))
	put("wal.records_per_sync", "records", ratio(dRec, float64(c1.dur.WAL.Syncs-c0.dur.WAL.Syncs)))
	put("wal.snapshots", "count", float64(c1.dur.Snapshots.Snapshots-c0.dur.Snapshots.Snapshots))
	put("wal.snapshot_bytes", "B", float64(c1.dur.Snapshots.LastBytes))

	// runtime and harness, over the traced saturation window
	put("go.alloc_bytes_per_q", "B", ratio(cSat.allocB-c0.allocB, float64(cSat.srv.Served-c0.srv.Served)))
	put("go.gc_cpu_frac", "ratio", ratio(cSat.gcCPU-c0.gcCPU, cSat.totCPU-c0.totCPU))
	put("gen.late_p99_us", "us", math.Max(b.cfg.LateP99US["lo"], b.cfg.LateP99US["rung"]))
	satT := float64(sat.GoodQ) / sat.Window.Seconds()
	satUq := float64(satU.GoodQ) / satU.Window.Seconds()
	put("trace.overhead_pct", "%", 100*ratio(satUq-satT, satUq))

	for _, ph := range []PhaseResult{lo, rung.res} {
		for i, l := range ph.Lat {
			sp.spans = append(sp.spans, span{Layer: "socket", Op: ph.Name, Dur: int64(l * 1e3), Units: i})
		}
	}
	if err := sp.write(filepath.Join(b.workdir, "spans-"+b.w.Name+".jsonl")); err != nil {
		return Result{}, err
	}
	att, failed, wrong := b.totals()
	wrong += storeWrong + pipeWrong
	return Result{Correct: wrong == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}

// pipelineTasks are the tasks the live runner times on its own: RV is its
// receive+parse booking, KC includes the fused RD, IN.I includes MM.
var pipelineTasks = []task.ID{task.RV, task.INSearch, task.INInsert, task.INDelete, task.KC, task.WR, task.LG, task.SD}

type storeSetter struct{ s *store.Store }

func (s storeSetter) Set(k, v []byte) error {
	_, _, err := s.s.Set(k, v)
	return err
}

// --- server rung ---

type rungResult struct {
	res    PhaseResult
	lat    []float64 // per frame index: answered latency in µs, 0 if not recorded or failed
	stream int
	seed   int64
	frames int
}

// memResponder is the server rung's in-memory frontend.Responder: it checks
// each delivered frame's answers and records its latency.
type memResponder struct {
	mu  sync.Mutex
	c   *connRun
	lat []float64
}

func (r *memResponder) Encode(f *frontend.Frame, resps []proto.Response) [][]byte {
	return [][]byte{proto.EncodeResponseFrameV2(nil, f.ReqID, 0, resps)}
}

func (r *memResponder) Deliver(f *frontend.Frame, units [][]byte) bool {
	p := f.Ctx.(*pending)
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.done {
		return true // already counted as timed out
	}
	for _, u := range units {
		rs, _, off, err := proto.ParseResponseFrameID(u, nil)
		if err != nil {
			break
		}
		for i := range rs {
			if idx := off + i; idx < len(p.qs) {
				r.c.answer(p, idx, r.c.checkAnswer(p.qs[idx], rs[i].Status, rs[i].Value))
			}
		}
	}
	if !p.done {
		r.c.fail(p)
	} else if !p.failed && p.record {
		r.lat[p.fi] = r.c.res.Lat[len(r.c.res.Lat)-1]
	}
	return true
}

func (r *memResponder) DeliverBatch(fs []*frontend.Frame) {
	for _, f := range fs {
		r.Deliver(f, f.Units)
	}
}

func (r *memResponder) Busy(f *frontend.Frame) {
	r.mu.Lock()
	r.c.busy(f.Ctx.(*pending))
	r.mu.Unlock()
}

func (r *memResponder) Fail(f *frontend.Frame, _ string) {
	r.mu.Lock()
	r.c.fail(f.Ctx.(*pending))
	r.mu.Unlock()
}

func (r *memResponder) Release(*frontend.Frame) {}

// serverRung submits the workload's frames straight to Server.Admit/Submit
// at the phase's open-loop rate: the frontend.Core contract with no sockets.
// Each frame is encoded and parsed exactly as the UDP front end parses it,
// and a shed frame is resubmitted after the client's backoff.
func (b *bench) serverRung(e *env, sp *spanLog, ph Phase) rungResult {
	stream, ctr := b.oracle.stream()
	seed := streamSeed(b.seed, b.w.Name, ph.Name, ph.Round, 0)
	c := &connRun{ph: ph, oracle: b.oracle, gen: newFrameGen(b.w, b.zt, seed, stream),
		rng: rand.New(rand.NewSource(seed ^ jitterSeed))}
	c.res.Name, c.res.Window = ph.Name, ph.Dur
	nFrames := int(ph.Rate*(ph.Warm+ph.Dur).Seconds()) + 1
	r := &memResponder{c: c, lat: make([]float64, nFrames)}
	enc := Encoder{w: b.w}
	submit := func(p *pending) {
		raw := enc.udpFrame(nil, uint64(stream)<<40|uint64(p.fi+1), p.qs)
		t0 := time.Now()
		qs, id, err := proto.ParseFrameID(raw, make([]proto.Query, 0, len(p.qs)))
		parse := sp.add("frontend", "parse", t0, len(qs))
		r.mu.Lock()
		p.attempts++
		if err != nil {
			c.fail(p)
		}
		r.mu.Unlock()
		if err != nil {
			return
		}
		f := &frontend.Frame{Queries: qs, ReqID: id, AKey: "server-rung", ParseNanos: parse.Nanoseconds(), R: r, Ctx: p}
		if e.srv.Admit(f) {
			e.srv.Submit(f)
		}
	}
	interval := time.Duration(float64(time.Second) / ph.Rate)
	start := time.Now()
	recFrom := start.Add(ph.Warm)
	qbuf := make([]Query, 0, b.w.FrameQ)
	sent := make([]*pending, 0, nFrames)
	// quiet is when the rung gives up on frames still open: the client
	// timeout after the last submission.
	var quiet time.Time
	for next := 0; ; {
		now := time.Now()
		var resend []*pending
		var wake time.Time // the next resend or due frame
		r.mu.Lock()
		for _, p := range sent {
			if p.done || p.resendAt.IsZero() {
				continue
			}
			if !now.Before(p.resendAt) {
				p.resendAt = time.Time{}
				c.res.Retries++
				resend = append(resend, p)
			} else if wake.IsZero() || p.resendAt.Before(wake) {
				wake = p.resendAt
			}
		}
		open := c.outstanding
		r.mu.Unlock()
		for _, p := range resend {
			submit(p)
			quiet = time.Now().Add(clientTimeout)
		}
		if next < nFrames {
			due := start.Add(time.Duration(next) * interval)
			if !now.Before(due) {
				r.mu.Lock()
				var fi int
				qbuf, fi = c.gen.Next(qbuf)
				p := &pending{fi: fi, qs: append([]Query(nil), qbuf...), due: due,
					got: make([]bool, len(qbuf)), need: len(qbuf), record: !due.Before(recFrom), sent: true}
				ctr.Add(1)
				c.res.Frames++
				c.outstanding++
				if p.record {
					c.res.Late = append(c.res.Late, float64(now.Sub(due).Nanoseconds())/1e3)
				}
				sent = append(sent, p)
				r.mu.Unlock()
				submit(p)
				quiet = time.Now().Add(clientTimeout)
				next++
				continue
			}
			if wake.IsZero() || due.Before(wake) {
				wake = due
			}
		} else if open == 0 || (wake.IsZero() && now.After(quiet)) {
			break
		}
		if wake.IsZero() {
			wake = now.Add(time.Millisecond) // frames executing: poll
		}
		time.Sleep(time.Until(wake))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	for _, p := range sent {
		if !p.done {
			c.res.Timeouts++
			c.finish(p, true, now)
		}
	}
	for fi, l := range r.lat {
		if l > 0 {
			sp.spans = append(sp.spans, span{Layer: "server", Op: "frame", Dur: int64(l * 1e3), Units: fi})
		}
	}
	return rungResult{res: c.res, lat: r.lat, stream: stream, seed: seed, frames: nFrames}
}

// --- store rung ---

// storeRung replays the server rung's exact frames straight into the store
// (GetInto, Set per query), timing each frame and each call, then times the
// ordered index's range read and the batched GetBatch and SearchBatch over
// the frames' GET keys at the live pipeline's mean GETs per batch. It returns wrong answers and the
// per-frame store time in ns, indexed like rung.lat.
func (b *bench) storeRung(st *store.Store, sp *spanLog, rung rungResult, qPerBatch float64) (int, []float64) {
	gen := newFrameGen(b.w, b.zt, rung.seed, rung.stream)
	enc := Encoder{w: b.w}
	frameNs := make([]float64, rung.frames)
	wrong := 0
	scratch := make([]byte, 0, b.w.ValLen)
	var val []byte
	var getKeys [][]byte
	qbuf := make([]Query, 0, b.w.FrameQ)
	for i := 0; i < rung.frames; i++ {
		var fi int
		qbuf, fi = gen.Next(qbuf)
		pqs := enc.protoQueries(qbuf)
		f0 := time.Now()
		for _, q := range pqs {
			t0 := time.Now()
			switch q.Op {
			case proto.OpGet:
				var ok bool
				val, ok = st.GetInto(q.Key, val[:0])
				sp.add("store", "get", t0, 1)
				if !b.oracle.checkGet(q.Key, ok, val, scratch) {
					wrong++
				}
				getKeys = append(getKeys, append([]byte(nil), q.Key...))
			case proto.OpSet:
				_, _, err := st.Set(q.Key, q.Value)
				sp.add("store", "set", t0, 1)
				if err != nil {
					wrong++
				}
			}
		}
		frameNs[fi] = float64(sp.add("store", "frame", f0, len(pqs)).Nanoseconds())
	}
	// The ordered index's range read: one 16-entry scan per eight GETs,
	// from the same key popularity.
	w := b.w
	w.ScanLimit = 16
	o := &Oracle{w: w, sent: b.oracle.sent}
	for i := 0; i < len(getKeys)/8; i++ {
		id := keyID(gen.rank(), w.Population)
		start := appendKey(nil, id, w.KeyLen)
		var keys, vals [][]byte
		t0 := time.Now()
		n, _ := st.Scan(start, nil, w.ScanLimit, func(k, v []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			vals = append(vals, append([]byte(nil), v...))
			return true
		})
		sp.add("store", "scan", t0, n)
		if !o.checkScan(id, keys, vals, scratch) {
			wrong++
		}
	}
	batch := int(math.Round(qPerBatch * b.w.GetFrac))
	if batch < 1 {
		batch = 1
	}
	var vals []byte
	var dst []cuckoo.Location
	lo, hi := make([]int32, batch), make([]int32, batch)
	for i := 0; i < len(getKeys); i += batch {
		keys := getKeys[i:min(i+batch, len(getKeys))]
		t0 := time.Now()
		vals, _ = st.GetBatch(keys, vals[:0], lo, hi)
		sp.add("store", "getbatch", t0, len(keys))
		t0 = time.Now()
		dst = st.SearchBatch(keys, dst[:0], lo, hi)
		sp.add("cuckoo", "searchbatch", t0, len(keys))
	}
	return wrong, frameNs
}

// --- pipeline rung ---

// liveStore adapts the store to the live runner exactly as the server's own
// adapter does (scalar search via SearchServe, the wide batched path, the
// ordered scanner and the store metrics the profile reads).
type liveStore struct{ s *store.Store }

func (l liveStore) Search(key []byte, dst []cuckoo.Location) []cuckoo.Location {
	return l.s.SearchServe(key, dst)
}
func (l liveStore) ReadCandidates(key []byte, c []cuckoo.Location, dst []byte) ([]byte, bool) {
	return l.s.ReadCandidates(key, c, dst)
}
func (l liveStore) Set(key, value []byte) error {
	_, _, err := l.s.Set(key, value)
	return err
}
func (l liveStore) Delete(key []byte) bool { return l.s.Delete(key) }
func (l liveStore) NewScanner() pipeline.LiveScanner {
	if sc := l.s.NewScanner(); sc != nil {
		return sc
	}
	return nil
}
func (l liveStore) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	return l.s.SearchBatch(keys, dst, lo, hi)
}
func (l liveStore) ReadCandidatesBatch(keys [][]byte, c []cuckoo.Location, lo, hi []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.ReadCandidatesBatch(keys, c, lo, hi, vals, vlo, vhi)
}
func (l liveStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	return l.s.GetBatch(keys, vals, vlo, vhi)
}
func (l liveStore) LiveMetrics() (uint64, uint64, float64) {
	st := l.s.StatsSnapshot()
	return uint64(st.LiveObjects), st.Evictions, st.AvgInsertBucketsProbed
}

// newPlanner builds the live planner exactly as the server's adaptive
// pipeline does on one ingestion queue.
func newPlanner() *costmodel.Planner {
	pl := costmodel.NewPlanner(apu.KaveriPlatform(), batchInterval)
	pl.MinBatch = pipeline.DefaultLiveMinBatch
	pl.MaxBatch = pipeline.DefaultLiveMaxBatch
	pl.INSearchMLP = costmodel.DefaultINSearchMLP
	pl.RVReaders = 1
	return pl
}

// pipelineRung drives the live runner, configured like the server's
// adaptive pipeline, directly with the workload's frames (closed loop, the
// sat phase's frames in flight) so its per-task histograms can be read.
func (b *bench) pipelineRung(st *store.Store, sp *spanLog, dur time.Duration) (int, *pipeline.LiveRunner) {
	pl := newPlanner()
	sizer := &pipeline.BatchSizer{Interval: batchInterval, Min: pl.MinBatch, Max: pl.MaxBatch}
	sizer.Set(pipeline.DefaultInitialBatch)
	ctrl := costmodel.NewController(pl, profiler.New(st), pipeline.DefaultLiveConfig(), sizer)
	stream, ctr := b.oracle.stream()
	gen := newFrameGen(b.w, b.zt, streamSeed(b.seed, b.w.Name, "pipeline", 0, 0), stream)
	var mu sync.Mutex
	wrong := 0
	var inflight atomic.Int64
	done := make(chan struct{}, 1)
	cr := &connRun{oracle: b.oracle}
	runner := pipeline.NewLiveRunner(liveStore{st}, pipeline.LiveOptions{
		Provider: ctrl, BatchInterval: batchInterval,
		DoneBatch: func(lfs []*pipeline.LiveFrame) {
			mu.Lock()
			for _, lf := range lfs {
				qs := lf.Ctx.([]Query)
				if lf.Err || len(lf.Resps) != len(qs) {
					wrong++
					continue
				}
				for i, q := range qs {
					if !cr.checkAnswer(q, lf.Resps[i].Status, lf.Resps[i].Value) {
						wrong++
					}
				}
			}
			mu.Unlock()
			inflight.Add(-int64(len(lfs)))
			select {
			case done <- struct{}{}:
			default:
			}
		},
	})
	window := int64(b.w.Window * b.nconns)
	enc := Encoder{w: b.w}
	end := time.Now().Add(dur)
	qbuf := make([]Query, 0, b.w.FrameQ)
	for time.Now().Before(end) {
		if inflight.Load() >= window {
			<-done
			continue
		}
		var fi int
		qbuf, fi = gen.Next(qbuf)
		qs := append([]Query(nil), qbuf...)
		ctr.Add(1)
		raw := enc.udpFrame(nil, uint64(fi+1), qs)
		t0 := time.Now()
		pqs, _, _ := proto.ParseFrameID(raw, make([]proto.Query, 0, len(qs)))
		parse := time.Since(t0)
		inflight.Add(1)
		t1 := time.Now()
		if !runner.Submit(&pipeline.LiveFrame{Queries: pqs, ParseNanos: parse.Nanoseconds(), Ctx: qs}) {
			inflight.Add(-1)
			time.Sleep(100 * time.Microsecond)
			continue
		}
		sp.add("pipeline", "submit", t1, len(pqs))
	}
	runner.Close()
	return wrong, runner
}

// --- control rung ---

// controlRung replays the server's measured batch profiles from its trace
// ring through a fresh profiler (skew sampling included) and the planner's
// search, and times the store statistics snapshot the profiler and the
// runner read, all against the store preloaded like the workload. Before
// each replayed decision the batch's GETs are served (untimed) from the
// workload's key distribution, so the skew sampler finds the access counts
// it would find on the serving path.
func (b *bench) controlRung(st *store.Store, sp *spanLog, ring []obs.TraceEvent) {
	prof := profiler.New(st)
	pl := newPlanner()
	keep := func(cfg pipeline.Config) bool { return !cfg.WorkStealing }
	gen := newFrameGen(b.w, b.zt, streamSeed(b.seed, b.w.Name, "control", 0, 0), -1)
	var key, val []byte
	for i, ev := range ring {
		for q := 0; q < ev.Profile.N; q++ {
			key = appendKey(key[:0], keyID(gen.rank(), b.w.Population), b.w.KeyLen)
			val, _ = st.GetInto(key, val[:0])
		}
		t0 := time.Now()
		measured, replan := prof.Observe(ev.Profile)
		sp.add("control", "observe", t0, 1)
		if replan || i == 0 {
			measured.CacheHitPortion = 0
			t0 = time.Now()
			pl.BestFiltered(measured, keep)
			sp.add("control", "best", t0, 1)
		}
	}
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		st.StatsSnapshot()
		sp.add("control", "stats_snapshot", t0, 1)
	}
}
