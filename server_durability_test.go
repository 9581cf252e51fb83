package dido

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// durableOpts returns ServerOptions with the durability tier on dir, batch
// (group-commit) sync, and no periodic snapshotter unless asked.
func durableOpts(dir string, pipelined bool) ServerOptions {
	opts := ServerOptions{Durability: &DurabilityOptions{Dir: dir, Sync: wal.SyncBatch}}
	if pipelined {
		opts.Pipeline = &PipelineOptions{BatchInterval: 200 * time.Microsecond}
	}
	return opts
}

// TestDurableServerRecoversAckedSets drives acked SETs and DELETEs through a
// durable server, closes it, and recovers into a fresh store: every acked SET
// must be readable and every acked DELETE gone, on both serving paths.
func TestDurableServerRecoversAckedSets(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "per-frame"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
			srv, err := NewServerDurable(st, durableOpts(dir, pipelined))
			if err != nil {
				t.Fatal(err)
			}
			addr, errc := startServer(t, srv)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			const keys = 300
			for i := 0; i < keys; i++ {
				if err := c.Set(keyN(i), valN(i)); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
			}
			for i := 0; i < keys; i += 10 {
				if _, err := c.Delete(keyN(i)); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
			}
			c.Close()
			srv.Close()
			waitServe(t, errc)

			// Recover into a brand-new store; recovery runs inside the
			// constructor, no Serve needed.
			st2 := NewStore(StoreConfig{MemoryBytes: 16 << 20})
			srv2, err := NewServerDurable(st2, durableOpts(dir, false))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer srv2.Close()
			ds, ok := srv2.DurabilityStats()
			if !ok || ds.RecoveredWALRecords == 0 {
				t.Fatalf("recovery replayed nothing: %+v ok=%v", ds, ok)
			}
			for i := 0; i < keys; i++ {
				v, found := st2.Get(keyN(i))
				if i%10 == 0 {
					if found {
						t.Fatalf("deleted key %d resurrected", i)
					}
					continue
				}
				if !found || string(v) != string(valN(i)) {
					t.Fatalf("acked key %d lost after recovery (found=%v)", i, found)
				}
			}
		})
	}
}

// TestDurableServerSnapshotTruncatesWAL pins the snapshot/truncate protocol
// end to end through the server: SnapshotNow leaves an empty wal.log and a
// loadable snapshot.snap, and a recovery spanning snapshot + post-snapshot
// WAL tail reconstructs everything.
func TestDurableServerSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv, err := NewServerDurable(st, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Set(keyN(i), valN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	walPath, walOld, snapPath := snapshot.Paths(dir)
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("wal.log not truncated by snapshot: %v %v", err, fi)
	}
	if _, err := os.Stat(walOld); !os.IsNotExist(err) {
		t.Fatal("wal.old left behind after successful snapshot")
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot.snap missing: %v", err)
	}
	ds, _ := srv.DurabilityStats()
	if ds.Snapshots.Snapshots != 1 || ds.WAL.Rotations != 1 {
		t.Fatalf("stats after snapshot: %+v", ds)
	}
	// Post-snapshot writes land in the fresh segment.
	for i := 100; i < 150; i++ {
		if err := c.Set(keyN(i), valN(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close()
	waitServe(t, errc)

	st2 := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv2, err := NewServerDurable(st2, durableOpts(dir, false))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.Close()
	ds2, _ := srv2.DurabilityStats()
	if ds2.RecoveredSnapshotEntries == 0 {
		t.Fatalf("recovery ignored the snapshot: %+v", ds2)
	}
	for i := 0; i < 150; i++ {
		if v, ok := st2.Get(keyN(i)); !ok || string(v) != string(valN(i)) {
			t.Fatalf("key %d lost across snapshot+tail recovery (ok=%v)", i, ok)
		}
	}
}

// accountingFile wraps a real WAL segment file and tracks how many bytes were
// written and how many were durable (synced) at any time — the instrument for
// the graceful-drain regression test.
type accountingFile struct {
	f  wal.File
	mu sync.Mutex
	// written/synced are logical byte counts across all segments sharing
	// this accounting (rotation reopens go through the same struct).
	written, synced int64
}

func (a *accountingFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	a.mu.Lock()
	a.written += int64(n)
	a.mu.Unlock()
	return n, err
}

func (a *accountingFile) Sync() error {
	err := a.f.Sync()
	if err == nil {
		a.mu.Lock()
		a.synced = a.written
		a.mu.Unlock()
	}
	return err
}

func (a *accountingFile) Close() error { return a.f.Close() }

func (a *accountingFile) counts() (written, synced int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.written, a.synced
}

// TestDurableCloseFsyncsTail is the graceful-drain regression test: with the
// sync policy off (nothing fsyncs during serving), Server.Close must still
// flush and fsync the WAL tail before returning — the bytes written and the
// bytes durable must match the moment Close returns, on both serving paths.
func TestDurableCloseFsyncsTail(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "per-frame"
		if pipelined {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			acct := &accountingFile{}
			opts := durableOpts(t.TempDir(), pipelined)
			opts.Durability.Sync = wal.SyncOff
			opts.Durability.OpenFile = func(path string) (wal.File, error) {
				f, err := wal.DefaultOpenFile(path)
				if err != nil {
					return nil, err
				}
				acct.f = f
				return acct, nil
			}
			st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
			srv, err := NewServerDurable(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			addr, errc := startServer(t, srv)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if err := c.Set(keyN(i), valN(i)); err != nil {
					t.Fatal(err)
				}
			}
			c.Close()
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			written, synced := acct.counts()
			if written == 0 {
				t.Fatal("no WAL bytes written despite acked SETs")
			}
			if synced != written {
				t.Fatalf("Close returned with %d of %d WAL bytes durable — tail not fsynced", synced, written)
			}
			waitServe(t, errc)
		})
	}
}

// rawDo sends one encoded frame over conn and collects responses until count
// responses arrived, retrying the send on timeout. It is the raw-frame client
// the at-most-once restart test needs (a real Client would mint a fresh
// request ID per call, but the test must resend an identical frame).
func rawDo(t *testing.T, conn *net.UDPConn, frame []byte, id uint64, count int) []proto.Response {
	t.Helper()
	buf := make([]byte, proto.MaxFrameBytes)
	got := make([]proto.Response, count)
	have := make([]bool, count)
	need := count
	for attempt := 0; attempt < 50; attempt++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("raw write: %v", err)
		}
		deadline := time.Now().Add(200 * time.Millisecond)
		for need > 0 && time.Now().Before(deadline) {
			conn.SetReadDeadline(deadline)
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			rs, rid, off, perr := proto.ParseResponseFrameID(buf[:n], nil)
			if perr != nil || rid != id {
				continue
			}
			for i, r := range rs {
				idx := off + i
				if idx < 0 || idx >= count || have[idx] {
					continue
				}
				if len(r.Value) > 0 {
					r.Value = append([]byte(nil), r.Value...)
				}
				got[idx] = r
				have[idx] = true
				need--
			}
		}
		if need == 0 {
			return got
		}
	}
	t.Fatalf("raw frame %d never fully answered", id)
	return nil
}

// TestDurableServerAtMostOnceAcrossRestart pins that the at-most-once reply
// cache survives a restart: a client that retries an acked SET frame after
// the server was restarted receives the recovered cached reply, and the retry
// does not re-execute the write (a newer value for the key stays in place).
func TestDurableServerAtMostOnceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv, err := NewServerDurable(st, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := startServer(t, srv)
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	key := []byte("the-key")
	frameA := proto.EncodeFrameV2(nil, 77, []proto.Query{{Op: proto.OpSet, Key: key, Value: []byte("v1")}})
	if rs := rawDo(t, conn, frameA, 77, 1); rs[0].Status != proto.StatusOK {
		t.Fatalf("set v1: %+v", rs[0])
	}
	frameB := proto.EncodeFrameV2(nil, 78, []proto.Query{{Op: proto.OpSet, Key: key, Value: []byte("v2")}})
	if rs := rawDo(t, conn, frameB, 78, 1); rs[0].Status != proto.StatusOK {
		t.Fatalf("set v2: %+v", rs[0])
	}
	srv.Close()
	waitServe(t, errc)

	// Restart on the same port; the client socket (and so its address, the
	// reply-cache key) is unchanged.
	st2 := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv2, err := NewServerDurable(st2, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	errc2 := make(chan error, 1)
	go func() { errc2 <- srv2.Serve(addr) }()
	for i := 0; srv2.Addr() == nil; i++ {
		if i > 500 {
			t.Fatal("restarted server never bound")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Retry frame A (the stale SET v1). The recovered cache must answer it
	// without re-executing: the reply says OK, the key still holds v2.
	if rs := rawDo(t, conn, frameA, 77, 1); rs[0].Status != proto.StatusOK {
		t.Fatalf("replayed ack: %+v", rs[0])
	}
	if ss := srv2.Stats(); ss.Replayed == 0 {
		t.Fatalf("retry was not answered from the recovered reply cache: %+v", ss)
	}
	frameC := proto.EncodeFrameV2(nil, 79, []proto.Query{{Op: proto.OpGet, Key: key}})
	rs := rawDo(t, conn, frameC, 79, 1)
	if rs[0].Status != proto.StatusOK || string(rs[0].Value) != "v2" {
		t.Fatalf("retried SET re-executed after restart: key = %q (%+v)", rs[0].Value, rs[0].Status)
	}
	srv2.Close()
	waitServe(t, errc2)
}

// TestDurableServerRecoversTornTail simulates a crash mid-append: garbage
// after the last valid record. Recovery must keep every whole record,
// truncate the torn bytes, and leave the segment clean for new appends.
func TestDurableServerRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	walPath, _, _ := snapshot.Paths(dir)
	l, err := wal.Open(walPath, wal.Options{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50
	for i := 0; i < keys; i++ {
		if err := l.Commit(wal.AppendSet(nil, keyN(i), valN(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01} // half a record
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv, err := NewServerDurable(st, durableOpts(dir, false))
	if err != nil {
		t.Fatalf("recovery refused a torn tail: %v", err)
	}
	ds, _ := srv.DurabilityStats()
	if ds.RecoveredWALRecords != keys || ds.RecoveredTornBytes != int64(len(torn)) {
		t.Fatalf("recovered %d records, torn %d bytes; want %d, %d",
			ds.RecoveredWALRecords, ds.RecoveredTornBytes, keys, len(torn))
	}
	for i := 0; i < keys; i++ {
		if v, ok := st.Get(keyN(i)); !ok || string(v) != string(valN(i)) {
			t.Fatalf("key %d lost to the torn tail", i)
		}
	}
	// New appends land cleanly after the truncation.
	addr, errc := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(keyN(keys), valN(keys)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	waitServe(t, errc)

	st2 := NewStore(StoreConfig{MemoryBytes: 16 << 20})
	srv2, err := NewServerDurable(st2, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for i := 0; i <= keys; i++ {
		if _, ok := st2.Get(keyN(i)); !ok {
			t.Fatalf("key %d missing after second recovery", i)
		}
	}
}

// TestCollectMetricsNamesDurable pins the durability tier's metric-name
// surface (the non-durable surface is pinned by TestCollectMetricsNames; the
// tier only ever adds names).
func TestCollectMetricsNamesDurable(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv, err := NewServerDurable(st, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	w := obs.NewMetricsWriter()
	srv.CollectMetrics(w)
	got := w.String()
	for _, name := range []string{
		"dido_wal_records_total", "dido_wal_bytes_total", "dido_wal_syncs_total",
		"dido_wal_errors_total", "dido_wal_rotations_total", "dido_wal_dropped_acks_total",
		`dido_wal_fsync_micros{quantile="0.5"}`, "dido_wal_fsync_micros_count",
		"dido_snapshots_total", "dido_snapshot_errors_total",
		"dido_snapshot_last_unix", "dido_snapshot_last_entries",
		"dido_recovery_duration_seconds", "dido_recovery_wal_records",
		"dido_recovery_dropped_applies",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("durability metric %s missing from exposition", name)
		}
	}
	v := srv.ConfigView()
	if v.Durability == nil || v.Durability.Dir != dir || v.Durability.Sync != "batch" || !v.Durability.Snapshots {
		t.Fatalf("config view durability section: %+v", v.Durability)
	}
	srv.Close()
	waitServe(t, errc)
}

// failSetBackend rejects every Set, modeling an arena too small to hold the
// recovered state.
type failSetBackend struct{ Backend }

func (failSetBackend) Set(key, value []byte) error { return errors.New("arena full") }

// TestRecoveryCountsDroppedApplies pins the recovery accounting for a backend
// that cannot hold the durable state: rejected SET applications must surface
// in DurabilityStats instead of silently reading as misses.
func TestRecoveryCountsDroppedApplies(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv, err := NewServerDurable(st, durableOpts(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10
	for i := 0; i < keys; i++ {
		if err := c.Set(keyN(i), valN(i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	c.Close()
	srv.Close()
	waitServe(t, errc)

	// A healthy recovery drops nothing.
	st2 := NewStore(StoreConfig{MemoryBytes: 8 << 20})
	srv2, err := NewServerDurable(st2, durableOpts(dir, false))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if ds, _ := srv2.DurabilityStats(); ds.RecoveryDroppedApplies != 0 {
		t.Fatalf("healthy recovery dropped %d applies", ds.RecoveryDroppedApplies)
	}
	srv2.Close()

	// A backend that rejects Sets must report every dropped application.
	srv3, err := NewServerDurable(failSetBackend{NewStore(StoreConfig{MemoryBytes: 8 << 20})}, durableOpts(dir, false))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv3.Close()
	ds, ok := srv3.DurabilityStats()
	if !ok || ds.RecoveryDroppedApplies != keys {
		t.Fatalf("dropped applies = %d, want %d (stats: %+v ok=%v)", ds.RecoveryDroppedApplies, keys, ds, ok)
	}
}

func keyN(i int) []byte { return []byte(fmt.Sprintf("durable-key-%04d", i)) }
func valN(i int) []byte {
	return []byte(fmt.Sprintf("durable-val-%04d-%s", i, strings.Repeat("x", 32)))
}
