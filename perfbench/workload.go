package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/proto"
)

// Workload fixes one benchmark traffic, DKV2 frames over UDP: the
// key/value shape and population, the query mix and skew, the two open-loop
// rates and the closed-loop window. BENCHMARK.md explains why each one was
// chosen.
type Workload struct {
	Name       string
	KeyLen     int
	ValLen     int
	Population int   // keys preloaded, key IDs 0..Population-1
	Arena      int64 // store arena bytes
	GetFrac    float64
	SetFrac    float64 // the rest of the mix after GET
	ZipfS      float64 // 0 = uniform
	// ScanLimit is the page size the oracle checks SCAN pages against; the
	// traced run's store rung sets it for its range reads.
	ScanLimit int
	FrameQ    int     // queries per frame
	LoRate    float64 // open-loop frames/s
	HiRate    float64
	Window    int // closed-loop frames outstanding per connection
	// Share of an untraced run's measured time for the closed loop and the
	// lo and hi phases, over all rounds (warm-ups take another 0.1): lo gets
	// the most, for its percentiles at a few dozen frames per second.
	SatW, LoW, HiW float64
	WAL            bool // durability tier on (interval sync) with frequent snapshots
	// MissIsWrong holds when the arena fits the population and nothing
	// deletes: every key exists for the whole run, so a GET miss or a gap
	// in a SCAN page is a wrong answer.
	MissIsWrong bool
}

var workloads = []Workload{
	{
		Name:   "udp-get-zipf",
		KeyLen: 16, ValLen: 64, Population: 1 << 20, Arena: 256 << 20,
		GetFrac: 0.95, SetFrac: 0.05, ZipfS: 0.99, FrameQ: 64,
		LoRate: 25, HiRate: 60, Window: 4, MissIsWrong: true,
		SatW: 0.3, LoW: 0.5, HiW: 0.05,
	},
	{
		Name:   "udp-set-evict-wal",
		KeyLen: 32, ValLen: 256, Population: 1 << 18, Arena: 64 << 20,
		GetFrac: 0.5, SetFrac: 0.5, FrameQ: 64,
		LoRate: 50, HiRate: 100, Window: 2, WAL: true,
		SatW: 10.0 / 45, LoW: 20.0 / 45, HiW: 10.0 / 45,
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// keyStride scatters popularity ranks over the key space (an odd multiplier
// is a bijection mod 2^k), so the hottest keys are not adjacent in key order
// and SCANs starting at hot keys cover different ranges.
const keyStride = 0x9E3779B1

// keyID maps a popularity rank (0 = hottest) to a key ID in [0, n).
// n is a power of two for every workload.
func keyID(rank, n int) int { return int((uint64(rank) * keyStride) & uint64(n-1)) }

// appendKey renders key ID id as a fixed-width decimal so byte order equals
// numeric order: 'k' followed by keyLen-1 digits.
func appendKey(dst []byte, id, keyLen int) []byte {
	dst = append(dst, 'k')
	var digits [40]byte
	d := len(digits)
	for v := id; d > len(digits)-(keyLen-1); v /= 10 {
		d--
		digits[d] = byte('0' + v%10)
	}
	return append(dst, digits[d:]...)
}

// parseKey inverts appendKey, returning -1 for a malformed key.
func parseKey(key []byte, keyLen int) int {
	if len(key) != keyLen || key[0] != 'k' {
		return -1
	}
	id := 0
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// Writer tags name who wrote a value: 0 is the preload, anything else packs
// the writing stream and the frame and query that carried the SET. The
// oracle accepts a value only if its tag names a frame that was already sent.
const preloadTag = 0

func writerTag(stream, frame, query int) uint64 {
	return uint64(stream+1)<<40 | uint64(frame)<<8 | uint64(query)
}

func splitTag(tag uint64) (stream, frame int) {
	return int(tag>>40) - 1, int(tag>>8) & (1<<32 - 1)
}

// valueHeaderLen is the value prefix holding the key ID and writer tag.
const valueHeaderLen = 16

// appendValue renders the value written for key id by tag: the key ID, the
// tag, then filler derived from both, so a value returned for the wrong key,
// torn, or never written fails the check.
func appendValue(dst []byte, id int, tag uint64, valLen int) []byte {
	var hdr [valueHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(id))
	binary.LittleEndian.PutUint64(hdr[8:], tag)
	dst = append(dst, hdr[:]...)
	x := uint64(id)*0x9E3779B97F4A7C15 ^ tag*0xC2B2AE3D27D4EB4F
	for i := valueHeaderLen; i < valLen; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst = append(dst, 'a'+byte(x%26))
	}
	return dst
}

// Oracle checks the answers the server returns against what the generator
// wrote. Streams register their sent-frame counters so a tag can be checked
// against frames that have actually left the generator.
type Oracle struct {
	w    Workload
	sent []*atomic.Int64 // per stream: frames sent so far
}

func newOracle(w Workload) *Oracle { return &Oracle{w: w} }

// stream registers a new generator stream and returns its index and sent
// counter. Not safe for concurrent use with check; streams are registered
// before traffic starts.
func (o *Oracle) stream() (int, *atomic.Int64) {
	c := new(atomic.Int64)
	o.sent = append(o.sent, c)
	return len(o.sent) - 1, c
}

// checkValue reports whether v is a value the generator wrote for key id.
func (o *Oracle) checkValue(id int, v []byte, scratch []byte) bool {
	if len(v) != o.w.ValLen || len(v) < valueHeaderLen {
		return false
	}
	if binary.LittleEndian.Uint64(v[:8]) != uint64(id) {
		return false
	}
	tag := binary.LittleEndian.Uint64(v[8:16])
	if tag != preloadTag {
		s, f := splitTag(tag)
		if s < 0 || s >= len(o.sent) || int64(f) >= o.sent[s].Load() {
			return false
		}
	}
	want := appendValue(scratch[:0], id, tag, o.w.ValLen)
	return string(want) == string(v)
}

// checkGet checks one GET answer for key. hit=false is a miss.
func (o *Oracle) checkGet(key []byte, hit bool, v []byte, scratch []byte) bool {
	id := parseKey(key, o.w.KeyLen)
	if id < 0 {
		return false
	}
	if !hit {
		return !o.w.MissIsWrong
	}
	return o.checkValue(id, v, scratch)
}

// checkScan checks one SCAN page for start key id: sorted, strictly
// increasing (no duplicates), at or after start, at most the limit, correct
// values — and, when the whole population is always present, exactly the
// next ScanLimit key IDs.
func (o *Oracle) checkScan(start int, keys, vals [][]byte, scratch []byte) bool {
	if len(keys) != len(vals) || len(keys) > o.w.ScanLimit {
		return false
	}
	prev := start - 1
	for i, k := range keys {
		id := parseKey(k, o.w.KeyLen)
		if id <= prev || !o.checkValue(id, vals[i], scratch) {
			return false
		}
		if o.w.MissIsWrong && id != prev+1 {
			return false
		}
		prev = id
	}
	if o.w.MissIsWrong {
		want := o.w.ScanLimit
		if rem := o.w.Population - start; rem < want {
			want = rem
		}
		return len(keys) == want
	}
	return true
}

// zipfTable is the shared inverse CDF of Zipf(s) over the population's
// ranks, built once per run; samplers draw from it with their own RNG.
type zipfTable struct{ cdf []float64 }

func newZipfTable(n int, s float64) *zipfTable {
	if s == 0 {
		return nil
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfTable{cdf: cdf}
}

// Query is one generated request, encoded into a frame by Encoder.
type Query struct {
	Op  proto.Op
	ID  int    // key ID
	Tag uint64 // SET writer tag
}

// FrameGen deterministically generates one stream's frames: the same seed,
// workload, phase and stream give the same sequence of frames.
type FrameGen struct {
	w      Workload
	zt     *zipfTable
	rng    *rand.Rand
	stream int
	next   int
}

// streamSeed derives a per-stream seed from the run seed. Each round of a
// repeated phase draws its own stream.
func streamSeed(seed int64, workload, phase string, round, conn int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s/r%d/%d", seed, workload, phase, round, conn)
	return int64(h.Sum64() & (1<<63 - 1))
}

func newFrameGen(w Workload, zt *zipfTable, seed int64, stream int) *FrameGen {
	return &FrameGen{w: w, zt: zt, rng: rand.New(rand.NewSource(seed)), stream: stream}
}

func (g *FrameGen) rank() int {
	if g.zt == nil {
		return g.rng.Intn(g.w.Population)
	}
	u := g.rng.Float64()
	return sort.SearchFloat64s(g.zt.cdf, u)
}

// Next fills dst with the next frame's queries and returns the frame index.
func (g *FrameGen) Next(dst []Query) ([]Query, int) {
	fi := g.next
	g.next++
	dst = dst[:0]
	for q := 0; q < g.w.FrameQ; q++ {
		u := g.rng.Float64()
		id := keyID(g.rank(), g.w.Population)
		if u < g.w.GetFrac {
			dst = append(dst, Query{Op: proto.OpGet, ID: id})
		} else {
			dst = append(dst, Query{Op: proto.OpSet, ID: id, Tag: writerTag(g.stream, fi, q)})
		}
	}
	return dst, fi
}

// Encoder renders generated queries into wire bytes with reused scratch.
type Encoder struct {
	w     Workload
	arena []byte
	qs    []proto.Query
}

// protoQueries converts generated queries to wire queries whose key/value
// slices live in the encoder's arena (valid until the next call).
func (e *Encoder) protoQueries(qs []Query) []proto.Query {
	e.arena = e.arena[:0]
	e.qs = e.qs[:0]
	need := len(qs) * (e.w.KeyLen + e.w.ValLen + 8)
	if cap(e.arena) < need {
		e.arena = make([]byte, 0, need)
	}
	for _, q := range qs {
		k0 := len(e.arena)
		e.arena = appendKey(e.arena, q.ID, e.w.KeyLen)
		key := e.arena[k0:len(e.arena):len(e.arena)]
		switch q.Op {
		case proto.OpGet:
			e.qs = append(e.qs, proto.Query{Op: proto.OpGet, Key: key})
		case proto.OpSet:
			v0 := len(e.arena)
			e.arena = appendValue(e.arena, q.ID, q.Tag, e.w.ValLen)
			e.qs = append(e.qs, proto.Query{Op: proto.OpSet, Key: key, Value: e.arena[v0:len(e.arena):len(e.arena)]})
		}
	}
	return e.qs
}

// udpFrame encodes qs as one DKV2 frame with request ID id.
func (e *Encoder) udpFrame(dst []byte, id uint64, qs []Query) []byte {
	return proto.EncodeFrameV2(dst, id, e.protoQueries(qs))
}
