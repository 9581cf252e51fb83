package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	dido "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Server configuration fixed by the benchmark: what `dido-server -pipeline
// on -adapt` builds, with every other flag at its default. The WAL workload
// adds `-wal <dir> -wal-sync 10ms -snapshot-interval 5s`: several snapshot
// cycles per run, while a 2 s interval kept the two cores so busy writing
// 50 MB snapshots that the generator itself ran 15 ms late.
const (
	batchInterval    = 500 * time.Microsecond
	walSyncInterval  = 10 * time.Millisecond
	snapshotInterval = 5 * time.Second
)

// env is one built server with its preloaded store.
type env struct {
	w     Workload
	store *dido.Store
	srv   *dido.Server
	trace *obs.TraceRing
	addr  string
	dir   string // WAL directory, removed by close
	done  chan struct{}
}

// setupEnv builds the server exactly as the binary does, preloads the
// population straight into the store and starts the UDP front end.
// With traced set it also attaches a controller trace ring, as the binary
// does when its admin endpoint is on.
func (b *bench) setupEnv(traced bool) (*env, error) {
	w := b.w
	e := &env{w: w, done: make(chan struct{})}
	e.store = dido.NewStore(dido.StoreConfig{MemoryBytes: w.Arena, Ordered: true})
	if traced {
		e.trace = obs.NewTraceRing(0)
	}
	opts := dido.ServerOptions{
		Pipeline: &dido.PipelineOptions{BatchInterval: batchInterval, Adapt: true, Trace: e.trace},
	}
	if w.WAL {
		dir, err := os.MkdirTemp(b.workdir, "wal-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		opts.Durability = &dido.DurabilityOptions{
			Dir: dir, Sync: wal.SyncInterval, SyncInterval: walSyncInterval,
			SnapshotInterval: snapshotInterval,
		}
	}
	srv, err := dido.NewServerDurable(e.store, opts)
	if err != nil {
		e.removeDir()
		return nil, err
	}
	e.srv = srv
	if err := preload(w, e.store); err != nil {
		e.close()
		return nil, err
	}
	go func() {
		defer close(e.done)
		if err := srv.Serve("127.0.0.1:0"); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if a := srv.Addr(); a != nil {
			e.addr = a.String()
			break
		}
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("UDP front end did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	return e, nil
}

// preload writes every key's initial value (writer tag 0).
func preload(w Workload, st interface{ Set(k, v []byte) error }) error {
	key := make([]byte, 0, w.KeyLen)
	val := make([]byte, 0, w.ValLen)
	for id := 0; id < w.Population; id++ {
		key = appendKey(key[:0], id, w.KeyLen)
		val = appendValue(val[:0], id, preloadTag, w.ValLen)
		if err := st.Set(key, val); err != nil {
			return fmt.Errorf("preload key %d: %w", id, err)
		}
	}
	return nil
}

// dialer returns the phase connection factory for the UDP front end.
func (e *env) dialer() func() (sender, error) {
	return func() (sender, error) { return dialUDP(e.addr, e.w) }
}

func (e *env) removeDir() {
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// close stops the server, waits for its serve goroutine and releases the
// arena back to the OS so the next set-up starts from the same footing.
func (e *env) close() {
	if e.srv != nil {
		e.srv.Close()
		if e.addr != "" {
			<-e.done
		}
	}
	e.removeDir()
	e.srv, e.store, e.trace = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// residentMiB reads a /proc/self/status memory line (VmRSS, VmHWM) in MiB.
func residentMiB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, field+": %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// retainedMiB is the resident set once garbage is collected and returned to
// the OS: the memory the server holds for its data and runtime, without the
// transient garbage whose peak depends on where GC cycles happen to fall.
func retainedMiB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	return residentMiB("VmRSS")
}
