package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/cuckoo"
	"repro/internal/proto"
)

// fakeLiveStore is a map-backed LiveStore for runner tests. Search returns no
// candidates (ReadCandidates resolves everything), which is exactly the
// degenerate contract the server uses for non-*Store backends. A key listed
// in panicOn panics on read; a non-nil gate blocks reads of gateKey until the
// gate closes, letting tests hold a batch in a stage.
type fakeLiveStore struct {
	mu      sync.Mutex
	m       map[string][]byte
	panicOn string
	gateKey string
	gate    chan struct{}
}

func newFakeLiveStore() *fakeLiveStore {
	return &fakeLiveStore{m: make(map[string][]byte)}
}

func (f *fakeLiveStore) Search(_ []byte, dst []cuckoo.Location) []cuckoo.Location { return dst }

func (f *fakeLiveStore) ReadCandidates(key []byte, _ []cuckoo.Location, dst []byte) ([]byte, bool) {
	if f.panicOn != "" && string(key) == f.panicOn {
		panic("poisoned key")
	}
	if f.gate != nil && string(key) == f.gateKey {
		<-f.gate
	}
	f.mu.Lock()
	v, ok := f.m[string(key)]
	f.mu.Unlock()
	if !ok {
		return dst, false
	}
	return append(dst, v...), true
}

func (f *fakeLiveStore) Set(key, value []byte) error {
	if f.gate != nil && string(key) == f.gateKey {
		<-f.gate
	}
	f.mu.Lock()
	f.m[string(key)] = append([]byte(nil), value...)
	f.mu.Unlock()
	return nil
}

func (f *fakeLiveStore) Delete(key []byte) bool {
	f.mu.Lock()
	_, ok := f.m[string(key)]
	delete(f.m, string(key))
	f.mu.Unlock()
	return ok
}

// fixedProvider always hands out the same (config, size) pair.
type fixedProvider struct {
	cfg Config
	n   int
}

func (p *fixedProvider) NextConfig(*Batch) (Config, int) { return p.cfg, p.n }

// flipProvider returns before until the first completed batch is observed,
// then after — a minimal online-reconfiguration script.
type flipProvider struct {
	before, after Config
	n             int
	flipped       bool
}

func (p *flipProvider) NextConfig(prev *Batch) (Config, int) {
	if prev != nil {
		p.flipped = true
	}
	if p.flipped {
		return p.after, p.n
	}
	return p.before, p.n
}

// cpuInsertMegaKV keeps Mega-KV's shape but assigns IN(Insert) to stage 1, so
// a gated SET (fakeLiveStore.gateKey) can hold the first stage busy while a
// test lines up the batches it wants.
func cpuInsertMegaKV() Config {
	c := MegaKV()
	c.InsertOn = apu.CPU
	return c
}

func setFrame(key, val string) *LiveFrame {
	return &LiveFrame{Queries: []proto.Query{
		{Op: proto.OpSet, Key: []byte(key), Value: []byte(val)},
	}}
}

func getFrame(keys ...string) *LiveFrame {
	f := &LiveFrame{}
	for _, k := range keys {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(k)})
	}
	return f
}

func collectFrames(t *testing.T, done chan *LiveFrame, n int) []*LiveFrame {
	t.Helper()
	out := make([]*LiveFrame, 0, n)
	for len(out) < n {
		select {
		case f := <-done:
			out = append(out, f)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d/%d", len(out)+1, n)
		}
	}
	return out
}

func TestLiveRunnerBasic(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k1"] = []byte("v1")
	done := make(chan *LiveFrame, 16)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 4},
		BatchInterval: time.Millisecond,
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	f1 := getFrame("k1", "absent")
	f2 := &LiveFrame{Queries: []proto.Query{
		{Op: proto.OpSet, Key: []byte("k2"), Value: []byte("v2")},
		{Op: proto.OpDelete, Key: []byte("nope")},
	}}
	if !r.Submit(f1) || !r.Submit(f2) {
		t.Fatal("Submit rejected while open")
	}
	collectFrames(t, done, 2)

	if f1.Err || f2.Err {
		t.Fatalf("unexpected frame errors: %v %v", f1.Err, f2.Err)
	}
	if got := f1.Resps[0]; got.Status != proto.StatusOK || string(got.Value) != "v1" {
		t.Fatalf("GET k1 = %+v, want OK v1", got)
	}
	if f1.Resps[1].Status != proto.StatusNotFound {
		t.Fatalf("GET absent = %+v, want NotFound", f1.Resps[1])
	}
	if f2.Resps[0].Status != proto.StatusOK {
		t.Fatalf("SET k2 = %+v, want OK", f2.Resps[0])
	}
	if f2.Resps[1].Status != proto.StatusNotFound {
		t.Fatalf("DELETE nope = %+v, want NotFound", f2.Resps[1])
	}
	if _, ok := st.m["k2"]; !ok {
		t.Fatal("SET k2 not applied to the store")
	}
	r.Close() // settle the counters: complete() increments after delivery
	s := r.Stats()
	// An idle pipeline seals each frame immediately (adaptive batching), so
	// the two frames execute as two batches.
	if s.Batches != 2 || s.Queries != 4 {
		t.Fatalf("Stats = %+v, want 2 batches / 4 queries", s)
	}
}

// TestLiveRunnerIdleSeal: a lone frame on an idle pipeline is sealed and
// executed immediately — batching only pays while the pipeline is busy, so
// neither the unreachable size target nor the (here: one hour) flush tick may
// delay it.
func TestLiveRunnerIdleSeal(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	done := make(chan *LiveFrame, 1)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 1 << 20}, // never fills
		BatchInterval: time.Hour,                                 // the tick will not help
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	f := getFrame("k")
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	collectFrames(t, done, 1)
	if f.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GET = %+v, want OK", f.Resps[0])
	}
}

// TestLiveRunnerFlushInterval: with stage 1 held busy the idle-seal path is
// unavailable, so a sub-target pending batch must be sealed by the flush
// tick — observed as the next submitted frame opening a batch of its own.
func TestLiveRunnerFlushInterval(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	st.gateKey = "hold"
	st.gate = make(chan struct{})
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 1 << 20},
		BatchInterval: 2 * time.Millisecond,
		Done:          func(f *LiveFrame) { done <- f },
	})
	defer r.Close()

	if !r.Submit(setFrame("hold", "x")) {
		t.Fatal("Submit hold rejected")
	}
	time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
	f := getFrame("k")
	if !r.Submit(f) { // stage 1 busy: f stays pending, only the tick seals it
		t.Fatal("Submit rejected")
	}
	time.Sleep(20 * time.Millisecond) // several ticks: the flusher seals f
	g := getFrame("k")
	if !r.Submit(g) {
		t.Fatal("Submit rejected")
	}
	close(st.gate)
	collectFrames(t, done, 3)
	if f.Resps[0].Status != proto.StatusOK || g.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GETs = %+v / %+v, want OK", f.Resps[0], g.Resps[0])
	}
	r.Close()
	// hold, f and g each completed as their own batch: had the tick not
	// sealed f while the stage was busy, f and g would have shared one.
	if s := r.Stats(); s.Batches != 3 {
		t.Fatalf("Batches = %d, want 3", s.Batches)
	}
}

// TestLiveRunnerBatchBoundaryReconfig is the ISSUE's reconfiguration test: a
// new config installed at a batch boundary applies only to batches sealed
// afterwards — batches already in flight complete under the config they were
// sealed with (§III-B1).
func TestLiveRunnerBatchBoundaryReconfig(t *testing.T) {
	c0 := MegaKV()
	c1 := Config{GPUDepth: 0} // pure-CPU single stage: clearly distinct

	st := newFakeLiveStore()
	st.m["gated"] = []byte("g")
	st.m["plain"] = []byte("p")
	st.gateKey = "gated"
	st.gate = make(chan struct{})

	var mu sync.Mutex
	var seen []Config
	done := make(chan *LiveFrame, 16)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &flipProvider{before: c0, after: c1, n: 1},
		BatchInterval: time.Hour, // seal by size only: deterministic batches
		Done:          func(f *LiveFrame) { done <- f },
		OnBatchDone: func(b *Batch) {
			mu.Lock()
			seen = append(seen, b.Config)
			mu.Unlock()
		},
	})
	defer r.Close()

	// Batch A seals under c0 and parks in a stage on the gated read. Batch B
	// then seals, also under c0 — the flip to c1 only happens once A
	// completes, by which time B is already in flight.
	if !r.Submit(getFrame("gated")) {
		t.Fatal("Submit A rejected")
	}
	if !r.Submit(getFrame("plain")) {
		t.Fatal("Submit B rejected")
	}
	close(st.gate)
	collectFrames(t, done, 2)

	// Batch C seals after the flip and must carry c1.
	if !r.Submit(getFrame("plain")) {
		t.Fatal("Submit C rejected")
	}
	collectFrames(t, done, 1)
	r.Close() // settle OnBatchDone/counters: complete() runs after delivery

	mu.Lock()
	got := append([]Config(nil), seen...)
	mu.Unlock()
	want := []Config{c0, c0, c1}
	if len(got) != len(want) {
		t.Fatalf("completed %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d completed under %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if s := r.Stats(); s.Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want exactly 1", s.Reconfigs)
	}
	if cfg := r.CurrentConfig(); cfg != c1 {
		t.Fatalf("CurrentConfig = %v, want %v", cfg, c1)
	}
}

// TestLiveRunnerPanicContainment proves batching does not widen the blast
// radius of a poisoned query: the panicking frame is marked Err, its
// batchmates are answered normally. The wide case poisons the batched store
// call itself: the runner reruns the batch on the scalar loop, which contains
// the panic to the frame that carries the bad key.
func TestLiveRunnerPanicContainment(t *testing.T) {
	for _, tc := range []struct {
		name string
		wide bool
	}{{"scalar", false}, {"wide", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := newFakeLiveStore()
			base.m["good"] = []byte("ok")
			base.panicOn = "boom"
			base.gateKey = "hold"
			base.gate = make(chan struct{})
			var st LiveStore = base
			wideMin := -1
			var wst *fakeWideStore
			if tc.wide {
				wst = &fakeWideStore{fakeLiveStore: base}
				st, wideMin = wst, 1
			}
			done := make(chan *LiveFrame, 4)
			r := NewLiveRunner(st, LiveOptions{
				Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 2},
				BatchInterval: time.Hour,
				WideMinGets:   wideMin,
				Done:          func(f *LiveFrame) { done <- f },
			})
			defer r.Close()

			// Hold stage 1 on a gated SET so the two frames below are
			// guaranteed to accumulate into one shared batch (sealed at the
			// size target of 2).
			if !r.Submit(setFrame("hold", "x")) {
				t.Fatal("Submit hold rejected")
			}
			time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
			bad := getFrame("boom")
			good := getFrame("good")
			if !r.Submit(bad) || !r.Submit(good) {
				t.Fatal("Submit rejected")
			}
			close(base.gate)
			collectFrames(t, done, 3)

			if !bad.Err {
				t.Fatal("poisoned frame not marked Err")
			}
			if good.Err {
				t.Fatal("healthy batchmate marked Err")
			}
			if good.Resps[0].Status != proto.StatusOK || string(good.Resps[0].Value) != "ok" {
				t.Fatalf("batchmate GET = %+v, want OK", good.Resps[0])
			}
			if s := r.Stats(); s.Panics != 1 {
				t.Fatalf("Panics = %d, want 1", s.Panics)
			}
			if tc.wide && wst.scalarReads.Load() == 0 {
				t.Fatal("wide panic did not fall back to the scalar loop")
			}
		})
	}
}

// runCoalesced submits frames so they coalesce into one batch: a dummy frame
// seals first and its batch parks in the testStage1Dequeued hook, so every
// frame submitted meanwhile accumulates behind the inflight count and seals
// together on release. It returns once every frame has been delivered.
func runCoalesced(t *testing.T, st LiveStore, opts LiveOptions, frames []*LiveFrame) {
	t.Helper()
	done := make(chan *LiveFrame, len(frames)+1)
	opts.Done = func(f *LiveFrame) { done <- f }
	opts.BatchInterval = time.Hour // only explicit seals
	r := NewLiveRunner(st, opts)
	defer r.Close()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	r.testStage1Dequeued = func() {
		once.Do(func() {
			entered <- struct{}{}
			<-release
		})
	}
	if !r.Submit(getFrame("warm")) {
		t.Fatal("Submit dummy rejected")
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stage-1 worker never parked on the dummy batch")
	}
	for i, f := range frames {
		if !r.Submit(f) {
			t.Fatalf("Submit frame %d rejected", i)
		}
	}
	close(release)
	collectFrames(t, done, len(frames)+1)
}

// mixedWorkload builds a deterministic mixed workload: per-frame keys are
// disjoint, and every read has a single correct answer under the batch's
// writes-before-reads contract.
func mixedWorkload(nframes, presets int) []*LiveFrame {
	frames := make([]*LiveFrame, nframes)
	for i := range frames {
		f := &LiveFrame{}
		add := func(q proto.Query) { f.Queries = append(f.Queries, q) }
		add(proto.Query{Op: proto.OpSet, Key: []byte(fmt.Sprintf("s%03d", i)), Value: []byte(fmt.Sprintf("sv%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("s%03d", i))})
		add(proto.Query{Op: proto.OpDelete, Key: []byte(fmt.Sprintf("d%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("d%03d", i))})
		add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("absent%03d", i))})
		for j := 0; j < 11; j++ {
			add(proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("p%03d", (i*11+j)%presets))})
		}
		frames[i] = f
	}
	return frames
}

// mixedStore presets the keys mixedWorkload expects.
func mixedStore(nframes, presets int) *fakeLiveStore {
	st := newFakeLiveStore()
	for i := 0; i < presets; i++ {
		st.m[fmt.Sprintf("p%03d", i)] = []byte(fmt.Sprintf("pv%03d", i))
	}
	for i := 0; i < nframes; i++ {
		st.m[fmt.Sprintf("d%03d", i)] = []byte("doomed")
	}
	return st
}

// checkMixedWorkload asserts every response of every frame against the
// workload's single correct answer: each query slot holds exactly the
// response its query must produce.
func checkMixedWorkload(t *testing.T, frames []*LiveFrame, presets int) {
	t.Helper()
	for i, f := range frames {
		if f.Err {
			t.Fatalf("frame %d poisoned", i)
		}
		if len(f.Resps) != len(f.Queries) {
			t.Fatalf("frame %d: %d resps for %d queries", i, len(f.Resps), len(f.Queries))
		}
		expect := func(qi int, status proto.Status, val string) {
			got := f.Resps[qi]
			if got.Status != status || (val != "" && string(got.Value) != val) {
				t.Fatalf("frame %d query %d = %v %q, want %v %q", i, qi, got.Status, got.Value, status, val)
			}
		}
		expect(0, proto.StatusOK, "")                       // SET
		expect(1, proto.StatusOK, fmt.Sprintf("sv%03d", i)) // GET own SET
		expect(2, proto.StatusOK, "")                       // DELETE preset
		expect(3, proto.StatusNotFound, "")                 // GET deleted
		expect(4, proto.StatusNotFound, "")                 // GET absent
		for j := 0; j < 11; j++ {
			expect(5+j, proto.StatusOK, fmt.Sprintf("pv%03d", (i*11+j)%presets))
		}
	}
}

// TestLiveMixedWorkload: one coalesced batch of SET/GET/DELETE frames must
// answer every query exactly once with its single correct response, across a
// multi-stage config, the fused single-stage config, and the wide batched
// read path.
func TestLiveMixedWorkload(t *testing.T) {
	const nframes, presets = 24, 40
	cases := []struct {
		name string
		cfg  Config
		wide bool
	}{
		{"multi-stage", MegaKV(), false},
		{"fused-single-stage", Config{GPUDepth: 0}, false},
		{"wide-path", MegaKV(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st LiveStore = mixedStore(nframes, presets)
			wideMin := -1
			var wst *fakeWideStore
			if tc.wide {
				wst = &fakeWideStore{fakeLiveStore: mixedStore(nframes, presets)}
				st, wideMin = wst, 1
			}
			frames := mixedWorkload(nframes, presets)
			runCoalesced(t, st, LiveOptions{
				Provider:    &fixedProvider{cfg: tc.cfg, n: 1 << 20},
				WideMinGets: wideMin,
			}, frames)
			checkMixedWorkload(t, frames, presets)
			if tc.wide && wst.readBatches.Load() == 0 {
				t.Fatal("wide read path not engaged")
			}
		})
	}
}

// TestLiveRunnerCloseDrains checks Close seals and executes the pending
// partial batch rather than dropping its frames.
func TestLiveRunnerCloseDrains(t *testing.T) {
	st := newFakeLiveStore()
	st.m["k"] = []byte("v")
	st.gateKey = "hold"
	st.gate = make(chan struct{})
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: cpuInsertMegaKV(), n: 1 << 20},
		BatchInterval: time.Hour, // the flusher will not help; Close must
		Done:          func(f *LiveFrame) { done <- f },
	})
	// Park stage 1 on a gated SET so f below is still pending when Close
	// runs (an idle pipeline would seal it immediately).
	if !r.Submit(setFrame("hold", "x")) {
		t.Fatal("Submit hold rejected")
	}
	time.Sleep(time.Millisecond) // let the stage-1 worker park on the gate
	f := getFrame("k")
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	time.AfterFunc(50*time.Millisecond, func() { close(st.gate) })
	r.Close()
	if got := len(done); got != 2 {
		t.Fatalf("Close returned with %d/2 frames delivered", got)
	}
	if f.Resps[0].Status != proto.StatusOK {
		t.Fatalf("GET after Close = %+v, want OK", f.Resps[0])
	}
	if r.Submit(getFrame("k")) {
		t.Fatal("Submit accepted after Close")
	}
}

// TestLiveRunnerProfileMeasured checks completed batches carry a measured
// workload profile (the adaptation loop's input).
func TestLiveRunnerProfileMeasured(t *testing.T) {
	st := newFakeLiveStore()
	st.m["aa"] = []byte("vvvv")
	var mu sync.Mutex
	var prof *Batch
	done := make(chan *LiveFrame, 4)
	r := NewLiveRunner(st, LiveOptions{
		Provider:      &fixedProvider{cfg: MegaKV(), n: 4},
		BatchInterval: time.Hour,
		Done:          func(f *LiveFrame) { done <- f },
		OnBatchDone: func(b *Batch) {
			mu.Lock()
			cp := *b
			prof = &cp
			mu.Unlock()
		},
	})
	defer r.Close()

	f := &LiveFrame{
		Queries: []proto.Query{
			{Op: proto.OpGet, Key: []byte("aa")},
			{Op: proto.OpGet, Key: []byte("aa")},
			{Op: proto.OpGet, Key: []byte("zz")},
			{Op: proto.OpSet, Key: []byte("bb"), Value: []byte("vvvv")},
		},
		ParseNanos: 1000,
	}
	if !r.Submit(f) {
		t.Fatal("Submit rejected")
	}
	collectFrames(t, done, 1)
	r.Close() // settle OnBatchDone: complete() runs it after delivery

	mu.Lock()
	defer mu.Unlock()
	if prof == nil {
		t.Fatal("OnBatchDone never ran")
	}
	p := prof.Profile
	if p.N != 4 {
		t.Fatalf("Profile.N = %d, want 4", p.N)
	}
	if p.GetRatio != 0.75 {
		t.Fatalf("Profile.GetRatio = %v, want 0.75", p.GetRatio)
	}
	if p.KeySize != 2 {
		t.Fatalf("Profile.KeySize = %v, want 2", p.KeySize)
	}
	if p.ValueSize != 4 {
		t.Fatalf("Profile.ValueSize = %v, want 4 (hits+sets averaged)", p.ValueSize)
	}
	if p.RVUnitNanos != 250 {
		t.Fatalf("Profile.RVUnitNanos = %v, want 1000ns/4 queries", p.RVUnitNanos)
	}
	if prof.Hits != 2 || prof.Misses != 1 {
		t.Fatalf("Hits/Misses = %d/%d, want 2/1", prof.Hits, prof.Misses)
	}
	if p.SDUnitNanos <= 0 {
		t.Fatalf("Profile.SDUnitNanos = %v, want measured > 0", p.SDUnitNanos)
	}
}
