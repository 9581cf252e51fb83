package main

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	dido "repro"
	"repro/internal/proto"
)

// jitterSeed separates a connection's backoff jitter from its request
// stream, which is drawn from the same stream seed.
const jitterSeed = 0x5bd1e995

// The generator retries like the repo's client (dido.Client) with its
// default options: an attempt times out after clientTimeout, a shed (busy)
// or timed-out attempt is resent with the same request ID after a jittered
// backoff that doubles up to clientMaxBackoff, and a frame fails only once
// clientRetries resends were all shed or lost. Shedding therefore shows as
// latency and as retries, the way a user of the client sees it.
const (
	clientTimeout    = dido.DefaultClientTimeout
	clientRetries    = dido.DefaultClientRetries
	clientBackoff    = dido.DefaultClientBackoff
	clientMaxBackoff = dido.DefaultClientMaxBackoff
)

// Phase describes one measured load phase.
type Phase struct {
	Name   string
	Round  int           // repetition of the phase within the run
	Rate   float64       // open loop: frames/s over all connections; 0 = closed loop
	Window int           // closed loop: frames outstanding per connection
	Warm   time.Duration // leading time whose frames are sent but not recorded
	Dur    time.Duration // recorded time after Warm
}

// PhaseResult is one phase's client-side record, merged over connections.
type PhaseResult struct {
	Name   string
	Frames int // frames attempted (warm-up included)
	Failed int // frames that errored, were answered wrongly or ran out of retries
	Wrong  int // wrong answers (queries)
	Errors int // frames that got an error reply or could not be sent
	// Attempts, not frames:
	Busy     int // attempts shed with a busy reply
	Timeouts int // attempts that timed out
	Retries  int // resends
	FirstTry int // frames answered on their first attempt
	// Recorded window only (frames due after Warm):
	Lat     []float64 // µs, successful frames
	FailLat []float64 // µs from due time until each failed frame failed
	Late    []float64 // µs, send time minus due time (open loop)
	GoodQ   int       // queries answered correctly in the recorded window
	Window  time.Duration
}

func (r *PhaseResult) merge(o *PhaseResult) {
	r.Frames += o.Frames
	r.Failed += o.Failed
	r.Wrong += o.Wrong
	r.Errors += o.Errors
	r.Busy += o.Busy
	r.Timeouts += o.Timeouts
	r.Retries += o.Retries
	r.FirstTry += o.FirstTry
	r.Lat = append(r.Lat, o.Lat...)
	r.FailLat = append(r.FailLat, o.FailLat...)
	r.Late = append(r.Late, o.Late...)
	r.GoodQ += o.GoodQ
}

// pending is one frame awaiting answers.
type pending struct {
	fi     int
	qs     []Query
	due    time.Time
	got    []bool
	need   int
	failed bool
	record bool
	done   bool
	sent   bool // the frame left the generator and counts as outstanding
	// Retry state: attempts sent so far, the current attempt's timeout, the
	// time of the next resend while the frame waits out a backoff (zero
	// otherwise) and the next backoff.
	attempts int
	deadline time.Time
	resendAt time.Time
	backoff  time.Duration
}

// sender is one connection's transport: how to send a frame and consume
// answers. The UDP sender implements it, and the tests a stub; the loop
// below is shared.
type sender interface {
	send(p *pending, id uint64) error
	// recv blocks until deadline for answers, applying them to outstanding
	// frames. It returns early once a frame finished or was shed, and a
	// timeout error when the deadline passed.
	recv(deadline time.Time, byID map[uint64]*pending, c *connRun) error
	close()
}

// connRun runs one connection's phase: the shared open/closed-loop engine.
type connRun struct {
	ph      Phase
	oracle  *Oracle
	gen     *FrameGen
	sentCtr interface{ Add(int64) int64 }
	s       sender
	rng     *rand.Rand // backoff jitter
	res     PhaseResult
	scratch []byte
	// start is the common phase start; offset staggers open-loop schedules
	// across connections.
	start  time.Time
	offset time.Duration
	idBase uint64
	// outstanding counts sent frames not yet finished.
	outstanding int
}

// run drives the phase until its window ends and every outstanding frame
// completed or failed. One goroutine per connection sends and receives, so
// the generator never needs more goroutines than connections.
func (c *connRun) run(nconns int) {
	c.res.Name = c.ph.Name
	end := c.start.Add(c.ph.Warm + c.ph.Dur)
	recFrom := c.start.Add(c.ph.Warm)
	byID := map[uint64]*pending{}
	var open []*pending // sent and not yet finished, in send order
	var interval time.Duration
	nextDue := c.start.Add(c.offset)
	if c.ph.Rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(nconns) / c.ph.Rate)
	}
	qbuf := make([]Query, 0, c.gen.w.FrameQ)
	attempt := func(p *pending, now time.Time) bool {
		p.attempts++
		p.deadline = now.Add(clientTimeout)
		if err := c.s.send(p, c.idBase+uint64(p.fi)+1); err != nil {
			c.res.Errors++
			c.finish(p, true, now)
			return false
		}
		return true
	}
	sendOne := func(due, now time.Time) bool {
		var fi int
		qbuf, fi = c.gen.Next(qbuf)
		p := &pending{fi: fi, qs: append([]Query(nil), qbuf...), due: due,
			got: make([]bool, len(qbuf)), need: len(qbuf), record: !due.Before(recFrom)}
		c.sentCtr.Add(1) // before the send: answers may carry this frame's SETs
		c.res.Frames++
		if c.ph.Rate > 0 && p.record {
			c.res.Late = append(c.res.Late, float64(now.Sub(due).Nanoseconds())/1e3)
		}
		if !attempt(p, now) {
			return false
		}
		c.outstanding++
		p.sent = true
		byID[c.idBase+uint64(fi)+1] = p
		open = append(open, p)
		return true
	}
	for {
		now := time.Now()
		if c.ph.Rate > 0 {
			// Send every overdue frame each wake-up: sleeping overshoots, so
			// catching up keeps the offered rate without spinning. Frames due
			// before the end are sent even when the generator fell behind
			// past it; their lateness is on the record.
			for !nextDue.After(now) && nextDue.Before(end) {
				sendOne(nextDue, now)
				nextDue = nextDue.Add(interval)
			}
		} else if now.Before(end) {
			for c.outstanding < c.ph.Window {
				if !sendOne(now, now) {
					break
				}
			}
		}
		// Resend frames whose backoff ended, back off those whose attempt
		// timed out, and drop finished frames.
		deadline := end
		if !now.Before(end) {
			// Only answers and retries are left; each open frame's next
			// event below comes sooner than this.
			deadline = now.Add(clientTimeout)
		} else if c.ph.Rate > 0 && nextDue.Before(deadline) {
			deadline = nextDue
		}
		kept := open[:0]
		for _, p := range open {
			if !p.done && !p.resendAt.IsZero() && !now.Before(p.resendAt) {
				p.resendAt = time.Time{}
				c.res.Retries++
				attempt(p, now)
			} else if !p.done && p.resendAt.IsZero() && !now.Before(p.deadline) {
				c.res.Timeouts++
				c.retry(p, now)
			}
			if p.done {
				delete(byID, c.idBase+uint64(p.fi)+1)
				continue
			}
			kept = append(kept, p)
			t := p.deadline
			if !p.resendAt.IsZero() {
				t = p.resendAt
			}
			if t.Before(deadline) {
				deadline = t
			}
		}
		open = kept
		if !now.Before(end) && c.outstanding == 0 && (c.ph.Rate == 0 || !nextDue.Before(end)) {
			break
		}
		if err := c.s.recv(deadline, byID, c); err != nil && !isTimeout(err) {
			// The connection broke: every outstanding frame fails.
			for _, p := range open {
				if !p.done {
					c.res.Errors++
					c.finish(p, true, time.Now())
				}
			}
			break
		}
	}
	c.res.Window = c.ph.Dur
}

// retry schedules p's next attempt after a jittered backoff that doubles
// from clientBackoff up to clientMaxBackoff, as dido.Client does, or fails
// p once its attempts are spent.
func (c *connRun) retry(p *pending, now time.Time) {
	if p.attempts > clientRetries {
		c.finish(p, true, now)
		return
	}
	if p.backoff == 0 {
		p.backoff = clientBackoff
	}
	jitter := time.Duration(c.rng.Int63n(int64(p.backoff))) - p.backoff/2
	p.resendAt = now.Add(p.backoff + jitter)
	if p.backoff *= 2; p.backoff > clientMaxBackoff {
		p.backoff = clientMaxBackoff
	}
}

// answer applies one query's answer to frame p at index i.
func (c *connRun) answer(p *pending, i int, ok bool) {
	if p.done || p.got[i] {
		return
	}
	p.got[i] = true
	p.need--
	if !ok {
		c.res.Wrong++
		p.failed = true
	}
	if p.need == 0 {
		c.finish(p, p.failed, time.Now())
	}
}

// busy handles a shed attempt of p: it is retried after a backoff.
func (c *connRun) busy(p *pending) {
	if p.done || !p.resendAt.IsZero() {
		return
	}
	c.res.Busy++
	c.retry(p, time.Now())
}

// fail marks p failed now (error reply).
func (c *connRun) fail(p *pending) {
	if p.done {
		return
	}
	c.res.Errors++
	c.finish(p, true, time.Now())
}

// finish settles frame p once: success records its latency, failure counts
// it slower than any percentile.
func (c *connRun) finish(p *pending, failed bool, at time.Time) {
	if p.done {
		return
	}
	p.done = true
	if p.sent {
		c.outstanding--
	}
	if failed {
		c.res.Failed++
	} else if p.attempts == 1 {
		c.res.FirstTry++
	}
	if !p.record {
		return
	}
	if failed {
		c.res.FailLat = append(c.res.FailLat, float64(at.Sub(p.due).Nanoseconds())/1e3)
		return
	}
	c.res.Lat = append(c.res.Lat, float64(at.Sub(p.due).Nanoseconds())/1e3)
	c.res.GoodQ += len(p.qs)
}

// checkAnswer verifies one wire response for query q.
func (c *connRun) checkAnswer(q Query, st proto.Status, v []byte) bool {
	w := c.oracle.w
	var kb [64]byte
	key := appendKey(kb[:0], q.ID, w.KeyLen)
	switch q.Op {
	case proto.OpGet:
		if st != proto.StatusOK && st != proto.StatusNotFound {
			return false
		}
		c.scratch = growScratch(c.scratch, w.ValLen)
		return c.oracle.checkGet(key, st == proto.StatusOK, v, c.scratch)
	case proto.OpSet:
		return st == proto.StatusOK
	}
	return false
}

func growScratch(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, 0, n)
	}
	return b
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}

// --- UDP (DKV2) ---

type udpSender struct {
	conn *net.UDPConn
	enc  Encoder
	out  []byte
	buf  []byte
	rs   []proto.Response
}

func dialUDP(addr string, w Workload) (*udpSender, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	return &udpSender{conn: conn, enc: Encoder{w: w}, buf: make([]byte, proto.MaxFrameBytes)}, nil
}

func (u *udpSender) send(p *pending, id uint64) error {
	u.out = u.enc.udpFrame(u.out[:0], id, p.qs)
	_, err := u.conn.Write(u.out)
	return err
}

func (u *udpSender) recv(deadline time.Time, byID map[uint64]*pending, c *connRun) error {
	if err := u.conn.SetReadDeadline(deadline); err != nil {
		return err
	}
	for {
		n, err := u.conn.Read(u.buf)
		if err != nil {
			return err
		}
		rs, rid, off, perr := proto.ParseResponseFrameID(u.buf[:n], u.rs[:0])
		u.rs = rs[:0]
		p := byID[rid]
		if perr != nil || p == nil || p.done {
			continue // late answer for a finished frame
		}
		if len(rs) > 0 && rs[0].Status == proto.StatusBusy {
			c.busy(p)
			return nil // the run loop schedules the resend
		}
		for i := range rs {
			idx := off + i
			if idx < 0 || idx >= len(p.qs) {
				continue
			}
			c.answer(p, idx, c.checkAnswer(p.qs[idx], rs[i].Status, rs[i].Value))
		}
		// Return to the run loop after each datagram that finished a frame
		// so an open-loop sender is never starved by a busy receive queue.
		if p.done {
			return nil
		}
		if err := u.conn.SetReadDeadline(deadline); err != nil {
			return err
		}
	}
}

func (u *udpSender) close() { u.conn.Close() }

// runPhase runs one phase over nconns fresh connections and merges their
// records. mk dials one connection's sender.
func runPhase(ph Phase, nconns int, o *Oracle, zt *zipfTable, seed int64, mk func() (sender, error)) (PhaseResult, error) {
	runs := make([]*connRun, nconns)
	for i := range runs {
		s, err := mk()
		if err != nil {
			for _, r := range runs[:i] {
				r.s.close()
			}
			return PhaseResult{}, err
		}
		stream, ctr := o.stream()
		ss := streamSeed(seed, o.w.Name, ph.Name, ph.Round, i)
		runs[i] = &connRun{
			ph: ph, oracle: o, s: s, sentCtr: ctr,
			gen:    newFrameGen(o.w, zt, ss, stream),
			rng:    rand.New(rand.NewSource(ss ^ jitterSeed)),
			idBase: uint64(stream) << 40,
		}
	}
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i, r := range runs {
		r.start = start
		if ph.Rate > 0 {
			r.offset = time.Duration(float64(time.Second) * float64(i) / ph.Rate)
		}
		wg.Add(1)
		go func(r *connRun) {
			defer wg.Done()
			r.run(nconns)
		}(r)
	}
	wg.Wait()
	var out PhaseResult
	out.Name = ph.Name
	for _, r := range runs {
		r.s.close()
		out.merge(&r.res)
	}
	out.Window = ph.Dur
	return out, nil
}
