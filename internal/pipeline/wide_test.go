package pipeline

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cuckoo"
	"repro/internal/proto"
)

// fakeWideStore extends the map-backed fake with the BatchReadStore surface,
// counting which path served each operation so tests can assert the runner's
// wide/scalar routing decisions.
type fakeWideStore struct {
	*fakeLiveStore
	searchBatches  atomic.Int32
	readBatches    atomic.Int32
	getBatches     atomic.Int32
	scalarReads    atomic.Int32
	panicWideReads bool // batched read paths panic (tests the scalar rerun)
}

func newFakeWideStore() *fakeWideStore {
	return &fakeWideStore{fakeLiveStore: newFakeLiveStore()}
}

func (f *fakeWideStore) ReadCandidates(key []byte, cands []cuckoo.Location, dst []byte) ([]byte, bool) {
	f.scalarReads.Add(1)
	return f.fakeLiveStore.ReadCandidates(key, cands, dst)
}

// SearchBatch mirrors the scalar fake's degenerate Search: no candidates, the
// read stage resolves everything.
func (f *fakeWideStore) SearchBatch(keys [][]byte, dst []cuckoo.Location, lo, hi []int32) []cuckoo.Location {
	f.searchBatches.Add(1)
	for i := range keys {
		lo[i], hi[i] = int32(len(dst)), int32(len(dst))
	}
	return dst
}

func (f *fakeWideStore) lookupBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hits := 0
	for i, k := range keys {
		if f.panicOn != "" && string(k) == f.panicOn {
			panic("poisoned key")
		}
		v, ok := f.m[string(k)]
		if !ok {
			vlo[i], vhi[i] = -1, -1
			continue
		}
		vlo[i] = int32(len(vals))
		vals = append(vals, v...)
		vhi[i] = int32(len(vals))
		hits++
	}
	return vals, hits
}

func (f *fakeWideStore) ReadCandidatesBatch(keys [][]byte, _ []cuckoo.Location, _, _ []int32, vals []byte, vlo, vhi []int32) ([]byte, int) {
	if f.panicWideReads {
		panic("wide read poisoned")
	}
	f.readBatches.Add(1)
	return f.lookupBatch(keys, vals, vlo, vhi)
}

func (f *fakeWideStore) GetBatch(keys [][]byte, vals []byte, vlo, vhi []int32) ([]byte, int) {
	if f.panicWideReads {
		panic("wide read poisoned")
	}
	f.getBatches.Add(1)
	return f.lookupBatch(keys, vals, vlo, vhi)
}

// wideGetFrame builds one frame with n GET queries over the key space.
func wideGetFrame(n int) *LiveFrame {
	f := &LiveFrame{}
	for i := 0; i < n; i++ {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte(fmt.Sprintf("k%03d", i%40))})
	}
	return f
}

func runWideBatch(t *testing.T, st LiveStore, cfg Config, wideMin, ngets int) (*LiveRunner, []*LiveFrame) {
	t.Helper()
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider:    &fixedProvider{cfg: cfg, n: 1},
		WideMinGets: wideMin,
		Done:        func(f *LiveFrame) { done <- f },
	})
	r.Submit(wideGetFrame(ngets))
	frames := collectFrames(t, done, 1)
	r.Close()
	return r, frames
}

// TestLiveWideReadPath: with a separate search stage (MegaKV) the wide path
// must serve a large-enough batch through SearchBatch + ReadCandidatesBatch —
// zero scalar reads — and produce exactly the scalar path's responses.
func TestLiveWideReadPath(t *testing.T) {
	st := newFakeWideStore()
	for i := 0; i < 40; i += 2 { // even keys present, odd keys miss
		st.m[fmt.Sprintf("k%03d", i)] = []byte(fmt.Sprintf("v%03d", i))
	}
	r, frames := runWideBatch(t, st, MegaKV(), 1, 64)
	if st.searchBatches.Load() == 0 || st.readBatches.Load() == 0 {
		t.Fatalf("wide path not engaged: searchBatches=%d readBatches=%d",
			st.searchBatches.Load(), st.readBatches.Load())
	}
	if st.scalarReads.Load() != 0 {
		t.Fatalf("scalar reads = %d, want 0 (wide path should cover the batch)", st.scalarReads.Load())
	}
	if got := r.Stats().WideBatches; got == 0 {
		t.Fatalf("Stats().WideBatches = %d, want > 0", got)
	}
	f := frames[0]
	if len(f.Resps) != 64 {
		t.Fatalf("resps = %d, want 64", len(f.Resps))
	}
	for i, resp := range f.Resps {
		k := i % 40
		if k%2 == 0 {
			want := fmt.Sprintf("v%03d", k)
			if resp.Status != proto.StatusOK || string(resp.Value) != want {
				t.Fatalf("resp %d = %v %q, want OK %q", i, resp.Status, resp.Value, want)
			}
		} else if resp.Status != proto.StatusNotFound {
			t.Fatalf("resp %d = %v, want NotFound", i, resp.Status)
		}
	}
}

// TestLiveWideFusedGetBatch: a single-stage config fuses search into the read
// (search skip), so the wide path must use GetBatch, not SearchBatch.
func TestLiveWideFusedGetBatch(t *testing.T) {
	st := newFakeWideStore()
	st.m["k000"] = []byte("v0")
	_, frames := runWideBatch(t, st, Config{GPUDepth: 0}, 1, 48)
	if st.getBatches.Load() == 0 {
		t.Fatalf("GetBatch not engaged (getBatches=0)")
	}
	if st.searchBatches.Load() != 0 {
		t.Fatalf("searchBatches = %d, want 0 under the fused config", st.searchBatches.Load())
	}
	if frames[0].Resps[0].Status != proto.StatusOK || string(frames[0].Resps[0].Value) != "v0" {
		t.Fatalf("resp 0 = %v %q", frames[0].Resps[0].Status, frames[0].Resps[0].Value)
	}
}

// TestLiveWideDisabled: WideMinGets < 0 must keep every read on the scalar
// path even when the store implements BatchReadStore.
func TestLiveWideDisabled(t *testing.T) {
	st := newFakeWideStore()
	st.m["k000"] = []byte("v0")
	r, _ := runWideBatch(t, st, MegaKV(), -1, 64)
	if st.readBatches.Load() != 0 || st.getBatches.Load() != 0 {
		t.Fatalf("wide path ran while disabled: readBatches=%d getBatches=%d",
			st.readBatches.Load(), st.getBatches.Load())
	}
	if st.scalarReads.Load() == 0 {
		t.Fatal("scalar path served nothing")
	}
	if got := r.Stats().WideBatches; got != 0 {
		t.Fatalf("WideBatches = %d, want 0", got)
	}
}

// TestLiveWideBelowThreshold: batches smaller than WideMinGets stay scalar.
func TestLiveWideBelowThreshold(t *testing.T) {
	st := newFakeWideStore()
	st.m["k000"] = []byte("v0")
	_, _ = runWideBatch(t, st, MegaKV(), 1000, 16)
	if st.readBatches.Load() != 0 {
		t.Fatalf("wide path ran below threshold: readBatches=%d", st.readBatches.Load())
	}
	if st.scalarReads.Load() == 0 {
		t.Fatal("scalar path served nothing")
	}
}

// TestLiveWidePanicFallsBackScalar: a panic inside the batched store call must
// not poison frames — the runner falls back to the scalar loop, which serves
// the batch normally.
func TestLiveWidePanicFallsBackScalar(t *testing.T) {
	st := newFakeWideStore()
	st.panicWideReads = true
	st.m["k000"] = []byte("v0")
	_, frames := runWideBatch(t, st, MegaKV(), 1, 64)
	f := frames[0]
	if f.Err {
		t.Fatal("frame poisoned: a recovered wide panic must fall back, not fail the frame")
	}
	if st.scalarReads.Load() == 0 {
		t.Fatal("scalar fallback did not serve the batch")
	}
	if f.Resps[0].Status != proto.StatusOK || string(f.Resps[0].Value) != "v0" {
		t.Fatalf("resp 0 = %v %q", f.Resps[0].Status, f.Resps[0].Value)
	}
}

// TestLiveWideSeesSameBatchWrites: the intra-batch writes-before-reads
// contract must hold on the wide path too — a GET batched with a SET of the
// same key observes the new value.
func TestLiveWideSeesSameBatchWrites(t *testing.T) {
	st := newFakeWideStore()
	done := make(chan *LiveFrame, 8)
	r := NewLiveRunner(st, LiveOptions{
		Provider:    &fixedProvider{cfg: Config{GPUDepth: 0}, n: 100000},
		WideMinGets: 1,
		Done:        func(f *LiveFrame) { done <- f },
	})
	// One frame carrying the SET and 32 GETs of the same key: large enough for
	// the wide path, sealed as a single batch.
	f := &LiveFrame{Queries: []proto.Query{{Op: proto.OpSet, Key: []byte("x"), Value: []byte("new")}}}
	for i := 0; i < 32; i++ {
		f.Queries = append(f.Queries, proto.Query{Op: proto.OpGet, Key: []byte("x")})
	}
	r.Submit(f)
	frames := collectFrames(t, done, 1)
	r.Close()
	for i, resp := range frames[0].Resps[1:] {
		if resp.Status != proto.StatusOK || string(resp.Value) != "new" {
			t.Fatalf("get %d = %v %q, want the same-batch SET's value", i, resp.Status, resp.Value)
		}
	}
	if st.getBatches.Load() == 0 {
		t.Fatal("fused wide path not engaged")
	}
}
