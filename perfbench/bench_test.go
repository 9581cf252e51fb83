package main

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"time"
)

// streamBytes encodes the first n frames of one generator stream.
func streamBytes(w Workload, zt *zipfTable, seed int64, round, n int) []byte {
	gen := newFrameGen(w, zt, streamSeed(seed, w.Name, "sat", round, 0), 0)
	enc := Encoder{w: w}
	var out []byte
	qs := make([]Query, 0, w.FrameQ)
	for i := 0; i < n; i++ {
		var fi int
		qs, fi = gen.Next(qs)
		out = enc.udpFrame(out, uint64(fi+1), qs)
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		w.Population = 1 << 12 // same generator, smaller CDF table
		zt := newZipfTable(w.Population, w.ZipfS)
		a := streamBytes(w, zt, 7, 0, 50)
		b := streamBytes(w, zt, 7, 0, 50)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: seed 7 produced two different request streams", w.Name)
		}
		if bytes.Equal(a, streamBytes(w, zt, 8, 0, 50)) {
			t.Fatalf("%s: seeds 7 and 8 produced the same request stream", w.Name)
		}
		if bytes.Equal(a, streamBytes(w, zt, 7, 1, 50)) {
			t.Fatalf("%s: rounds 0 and 1 of a phase replayed the same request stream", w.Name)
		}
	}
}

func TestPercentileCountsFailuresSlowest(t *testing.T) {
	ok := make([]float64, 98)
	for i := range ok {
		ok[i] = float64(i + 1) // 1..98 µs
	}
	fails := []float64{3, 1000} // failed 3 µs and 1 ms after they were due
	if v, onOK := percentile(ok, fails, 50); !onOK || v != 50 {
		t.Fatalf("p50 = %v (on answered %v), want 50", v, onOK)
	}
	if v, onOK := percentile(ok, fails, 98); !onOK || v != 98 {
		t.Fatalf("p98 = %v (on answered %v), want the slowest answered frame", v, onOK)
	}
	timeout := float64(clientTimeout.Microseconds())
	// Rank 99 of 100 is the first failed frame: a fast failure (a shed
	// reply after 3 µs) still sorts after every answered frame.
	if v, onOK := percentile(ok, fails, 99); onOK || v != timeout+3 {
		t.Fatalf("p99 = %v (on answered %v), want %v", v, onOK, timeout+3)
	}
	if v, _ := percentile(ok, fails, 99.9); v != timeout+1000 {
		t.Fatalf("p99.9 = %v, want %v", v, timeout+1000)
	}
	if v, onOK := percentile(nil, []float64{5}, 50); onOK || v <= timeout {
		t.Fatalf("all failed: p50 = %v (on answered %v), want above the timeout", v, onOK)
	}
	if _, onOK := percentile(nil, nil, 50); onOK {
		t.Fatal("no samples must not report a percentile")
	}
}

func TestMidMeanDropsExtremes(t *testing.T) {
	if v := midMean([]float64{100, 1, 17, 19, 18}); v != 18 {
		t.Fatalf("midMean = %v, want 18", v)
	}
	if v := midMean([]float64{100, 1, 17, 19, 18, 0, 50, 17, 19}); v != 18 {
		t.Fatalf("midMean of nine = %v, want 18 (two dropped from each end)", v)
	}
	if v := midMean([]float64{4, 2}); v != 3 {
		t.Fatalf("midMean of two = %v, want their median 3", v)
	}
}

// slowSender answers every frame immediately but takes sendCost to send
// one, so an open-loop generator falls behind its schedule.
type slowSender struct{ sendCost time.Duration }

func (s *slowSender) send(*pending, uint64) error {
	time.Sleep(s.sendCost)
	return nil
}

func (s *slowSender) recv(deadline time.Time, byID map[uint64]*pending, c *connRun) error {
	answered := false
	for _, p := range byID {
		for i := range p.qs {
			if !p.done {
				c.answer(p, i, true)
				answered = true
			}
		}
	}
	if answered {
		return nil
	}
	time.Sleep(time.Until(deadline))
	return os.ErrDeadlineExceeded
}

func (s *slowSender) close() {}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	w := workloads[0]
	w.Population = 1 << 10
	o := newOracle(w)
	stream, ctr := o.stream()
	ph := Phase{Name: "lo", Rate: 1000, Dur: 50 * time.Millisecond}
	c := &connRun{ph: ph, oracle: o, s: &slowSender{sendCost: 2 * time.Millisecond}, sentCtr: ctr,
		gen: newFrameGen(w, newZipfTable(w.Population, w.ZipfS), 1, stream), start: time.Now()}
	c.run(1)
	// Every frame due in the window is sent, however late: the offered load
	// is the schedule's, not what the generator managed.
	if c.res.Frames != 50 || len(c.res.Late) != 50 || len(c.res.Lat) != 50 {
		t.Fatalf("frames %d, lateness samples %d, latencies %d; want 50 each",
			c.res.Frames, len(c.res.Late), len(c.res.Lat))
	}
	// Sending 50 frames at 2 ms each takes ~100 ms for a 50 ms schedule, so
	// the last frames leave ~50 ms late.
	late := lateness(c.res.Late)
	if late < 30e3 {
		t.Fatalf("p99 lateness %.0f µs, want ≥ 30 ms", late)
	}
	// Latency runs from the due time, so it includes the lateness.
	worst, _ := percentile(c.res.Lat, nil, 100)
	if worst < late {
		t.Fatalf("worst latency %.0f µs below p99 lateness %.0f µs", worst, late)
	}
	if p99, _ := percentile(c.res.Lat, nil, 99); !lateRivals(late, p99) {
		t.Fatalf("lateness %.0f µs against p99 %.0f µs must mark the phase", late, p99)
	}
}

// shedSender sheds the first shedAttempts attempts of every frame with a
// busy reply and answers the next one.
type shedSender struct {
	shedAttempts int
	queue        []*pending
}

func (s *shedSender) send(p *pending, _ uint64) error {
	s.queue = append(s.queue, p)
	return nil
}

func (s *shedSender) recv(deadline time.Time, _ map[uint64]*pending, c *connRun) error {
	if len(s.queue) == 0 {
		time.Sleep(time.Until(deadline))
		return os.ErrDeadlineExceeded
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	if p.attempts <= s.shedAttempts {
		c.busy(p)
		return nil
	}
	for i := range p.qs {
		c.answer(p, i, true)
	}
	return nil
}

func (s *shedSender) close() {}

func runShed(t *testing.T, shedAttempts int, dur time.Duration) PhaseResult {
	t.Helper()
	w := workloads[0]
	w.Population = 1 << 10
	o := newOracle(w)
	stream, ctr := o.stream()
	c := &connRun{ph: Phase{Name: "sat", Window: 1, Dur: dur}, oracle: o,
		s: &shedSender{shedAttempts: shedAttempts}, sentCtr: ctr, rng: rand.New(rand.NewSource(1)),
		gen: newFrameGen(w, newZipfTable(w.Population, w.ZipfS), 1, stream), start: time.Now()}
	c.run(1)
	return c.res
}

func TestShedFramesAreRetried(t *testing.T) {
	// A shed attempt is resent after the client's backoff; the frame then
	// succeeds, and its latency includes the wait.
	r := runShed(t, 1, 50*time.Millisecond)
	if r.Frames == 0 || r.Failed != 0 || r.Busy != r.Frames || r.Retries != r.Frames || r.FirstTry != 0 {
		t.Fatalf("frames %d failed %d busy %d retries %d first-try %d; want every frame shed once, retried and answered",
			r.Frames, r.Failed, r.Busy, r.Retries, r.FirstTry)
	}
	if fastest, _ := percentile(r.Lat, nil, 1); fastest < float64(clientBackoff.Microseconds())/2 {
		t.Fatalf("fastest retried frame took %.0f µs, less than the minimum backoff", fastest)
	}
	// A frame shed on every attempt fails once its retries are spent.
	r = runShed(t, clientRetries+1, time.Millisecond)
	if r.Frames != 1 || r.Failed != 1 || r.Busy != clientRetries+1 || r.Retries != clientRetries {
		t.Fatalf("frames %d failed %d busy %d retries %d; want one frame failed after %d attempts",
			r.Frames, r.Failed, r.Busy, r.Retries, clientRetries+1)
	}
}

func TestOracle(t *testing.T) {
	// Every key always present, as on udp-get-zipf, with 16-entry pages as
	// the store rung reads them.
	w := Workload{Name: "oracle", KeyLen: 16, ValLen: 64, Population: 1 << 10, ScanLimit: 16, MissIsWrong: true}
	o := newOracle(w)
	stream, ctr := o.stream()
	scratch := make([]byte, 0, w.ValLen)
	key := appendKey(nil, 5, w.KeyLen)
	if parseKey(key, w.KeyLen) != 5 {
		t.Fatalf("key %q does not parse back to 5", key)
	}
	if !o.checkGet(key, true, appendValue(nil, 5, preloadTag, w.ValLen), scratch) {
		t.Fatal("preloaded value rejected")
	}
	if o.checkGet(key, true, appendValue(nil, 6, preloadTag, w.ValLen), scratch) {
		t.Fatal("another key's value accepted")
	}
	if o.checkGet(key, false, nil, scratch) {
		t.Fatal("a miss accepted where every key exists")
	}
	written := appendValue(nil, 5, writerTag(stream, 0, 3), w.ValLen)
	if o.checkGet(key, true, written, scratch) {
		t.Fatal("value from a frame not yet sent accepted")
	}
	ctr.Add(1)
	if !o.checkGet(key, true, written, scratch) {
		t.Fatal("value from a sent frame rejected")
	}
	written[len(written)-1] ^= 1
	if o.checkGet(key, true, written, scratch) {
		t.Fatal("torn value accepted")
	}
	page := func(ids ...int) ([][]byte, [][]byte) {
		var ks, vs [][]byte
		for _, id := range ids {
			ks = append(ks, appendKey(nil, id, w.KeyLen))
			vs = append(vs, appendValue(nil, id, preloadTag, w.ValLen))
		}
		return ks, vs
	}
	full := make([]int, w.ScanLimit)
	for i := range full {
		full[i] = 100 + i
	}
	if ks, vs := page(full...); !o.checkScan(100, ks, vs, scratch) {
		t.Fatal("complete sorted page rejected")
	}
	for name, ids := range map[string][]int{
		"gap":       append(append([]int{}, full[:5]...), full[6:]...),
		"duplicate": append([]int{100}, full[:w.ScanLimit-1]...),
		"unsorted":  append([]int{101, 100}, full[2:]...),
		"too long":  append(append([]int{}, full...), 100+w.ScanLimit),
		"before":    append([]int{99}, full[:w.ScanLimit-1]...),
	} {
		if ks, vs := page(ids...); o.checkScan(100, ks, vs, scratch) {
			t.Fatalf("%s page accepted", name)
		}
	}
}
