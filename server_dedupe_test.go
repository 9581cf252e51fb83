package dido

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
)

// gatedBackend parks every Set on a gate so a test can hold a request
// in-flight for as long as it likes, and counts executions.
type gatedBackend struct {
	inner   Backend
	entered chan struct{} // signaled once per Set call, before blocking
	release chan struct{} // closed to let parked Sets proceed

	mu   sync.Mutex
	sets int
}

func (b *gatedBackend) Get(key []byte) ([]byte, bool) { return b.inner.Get(key) }
func (b *gatedBackend) Delete(key []byte) bool        { return b.inner.Delete(key) }
func (b *gatedBackend) Set(key, value []byte) error {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	b.mu.Lock()
	b.sets++
	b.mu.Unlock()
	return b.inner.Set(key, value)
}
func (b *gatedBackend) setCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sets
}

// TestDuplicateWhileInFlightExecutesOnce pins the at-most-once hole the
// reply cache alone cannot close: a retry arriving while the original
// request is still executing finds no cached reply yet, and before in-flight
// tracking it was admitted as a second execution. The duplicate must be
// dropped, the SET must run once, and a later retry must be answered from
// the cache.
func TestDuplicateWhileInFlightExecutesOnce(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	gb := &gatedBackend{
		inner:   st,
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	srv := NewServer(gb)
	addr, errc := startServer(t, srv)
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := proto.EncodeFrameV2(nil, 31337, []Query{{Op: OpSet, Key: []byte("dup"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gb.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("original SET never reached the backend")
	}

	// Retry while the original is parked inside the backend. The server must
	// drop it rather than execute the SET a second time.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().DupDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate was never observed/dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(gb.release)
	buf := make([]byte, proto.MaxFrameBytes)
	readResp := func() []proto.Response {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
		if err != nil || id != 31337 {
			t.Fatalf("response id %d err %v", id, err)
		}
		return rs
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("original response = %+v", rs)
	}

	// A retry after completion replays from the cache without re-execution.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if rs := readResp(); len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("replayed response = %+v", rs)
	}

	if n := gb.setCount(); n != 1 {
		t.Fatalf("SET executed %d times, want 1", n)
	}
	ss := srv.Stats()
	if ss.DupDropped != 1 {
		t.Fatalf("dup-dropped = %d, want 1", ss.DupDropped)
	}
	if ss.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", ss.Replayed)
	}
	srv.Close()
	waitServe(t, errc)
}

// TestAbortedFrameAllowsRetry checks that a tracked frame whose processing
// dies without producing a reply (here: a panicking backend) clears its
// in-flight marker, so a retry is admitted instead of dropped forever.
func TestAbortedFrameAllowsRetry(t *testing.T) {
	st := NewStore(StoreConfig{MemoryBytes: 4 << 20})
	pb := &panicOnceBackend{inner: st}
	srv := NewServer(pb)
	addr, errc := startServer(t, srv)
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := proto.EncodeFrameV2(nil, 90210, []Query{{Op: OpSet, Key: []byte("retry"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Panics == 0 {
		if time.Now().After(deadline) {
			t.Fatal("panicked frame never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The first attempt died; its in-flight marker must be gone so the retry
	// executes (rather than being treated as a duplicate).
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, proto.MaxFrameBytes)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("retry after aborted frame got no reply: %v", err)
	}
	rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
	if err != nil || id != 90210 || len(rs) != 1 || rs[0].Status != proto.StatusOK {
		t.Fatalf("retry response = %+v id %d err %v", rs, id, err)
	}
	if v, ok := st.Get([]byte("retry")); !ok || string(v) != "v" {
		t.Fatalf("retried SET not applied: %q/%v", v, ok)
	}
	srv.Close()
	waitServe(t, errc)
}

// panicOnceBackend panics on the first Set and behaves normally after.
type panicOnceBackend struct {
	inner Backend
	mu    sync.Mutex
	calls int
}

func (b *panicOnceBackend) Get(key []byte) ([]byte, bool) { return b.inner.Get(key) }
func (b *panicOnceBackend) Delete(key []byte) bool        { return b.inner.Delete(key) }
func (b *panicOnceBackend) Set(key, value []byte) error {
	b.mu.Lock()
	b.calls++
	first := b.calls == 1
	b.mu.Unlock()
	if first {
		panic("injected")
	}
	return b.inner.Set(key, value)
}

// sendHookConn wraps the server's UDP socket and intercepts its first reply
// datagram. With fail unset the reply is sent, then the sending goroutine
// parks until release is closed; with fail set the reply is dropped and the
// send reports an error. sent is closed once the first reply was handled;
// later writes pass straight through.
type sendHookConn struct {
	net.PacketConn
	fail    bool
	sent    chan struct{}
	release chan struct{}
	first   atomic.Bool
}

func (c *sendHookConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if !c.first.CompareAndSwap(false, true) {
		return c.PacketConn.WriteTo(b, addr)
	}
	if c.fail {
		close(c.sent)
		return 0, errors.New("injected send failure")
	}
	n, err := c.PacketConn.WriteTo(b, addr)
	close(c.sent)
	<-c.release
	return n, err
}

// TestReplyCachedBeforeSend pins the reply cache's ordering against the send
// on both serving paths. parked-send: the original reply reaches the client
// while its sender is still parked inside the send; the client's next retry
// must be replayed from the cache, not dropped as a duplicate of a request
// still in flight (which left it unanswered). failed-send: the reply is lost
// to a send error; the frame already executed, so the retry must be replayed
// rather than executing the SET a second time.
func TestReplyCachedBeforeSend(t *testing.T) {
	for _, path := range []string{"per-frame", "pipelined"} {
		for _, fail := range []bool{false, true} {
			name := path + "/parked-send"
			if fail {
				name = path + "/failed-send"
			}
			t.Run(name, func(t *testing.T) { testReplyCachedBeforeSend(t, path == "pipelined", fail) })
		}
	}
}

func testReplyCachedBeforeSend(t *testing.T, pipelined, fail bool) {
	gb := &gatedBackend{
		inner:   NewStore(StoreConfig{MemoryBytes: 4 << 20}),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	close(gb.release) // count executions only; never park a SET
	hook := &sendHookConn{fail: fail, sent: make(chan struct{}), release: make(chan struct{})}
	opts := ServerOptions{WrapConn: func(pc net.PacketConn) net.PacketConn {
		hook.PacketConn = pc
		return hook
	}}
	var srv *Server
	if pipelined {
		srv = pipelinedServer(gb, opts)
	} else {
		srv = NewServerOpts(gb, opts)
	}
	addr, errc := startServer(t, srv)
	released := false
	defer func() {
		if !released {
			close(hook.release)
		}
		srv.Close()
	}()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, proto.MaxFrameBytes)
	readResp := func(what string) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("%s: no reply: %v", what, err)
		}
		rs, id, _, err := proto.ParseResponseFrameID(buf[:n], nil)
		if err != nil || id != 424242 || len(rs) != 1 || rs[0].Status != proto.StatusOK {
			t.Fatalf("%s = %+v id %d err %v", what, rs, id, err)
		}
	}

	frame := proto.EncodeFrameV2(nil, 424242, []Query{{Op: OpSet, Key: []byte("k"), Value: []byte("v")}})
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hook.sent:
	case <-time.After(2 * time.Second):
		t.Fatal("the original reply was never sent")
	}
	if !fail {
		readResp("original reply")
	}
	// The retry lands while the original's sender is still parked (or right
	// after its send failed).
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	readResp("retry reply")
	close(hook.release)
	released = true

	if n := gb.setCount(); n != 1 {
		t.Fatalf("SET executed %d times, want 1", n)
	}
	if ss := srv.Stats(); ss.Replayed != 1 || ss.DupDropped != 0 {
		t.Fatalf("replayed=%d dup-dropped=%d, want 1/0", ss.Replayed, ss.DupDropped)
	}
	srv.Close()
	waitServe(t, errc)
}
