// Command perfbench is the serving benchmark of the DIDO key-value server:
// an in-process adaptive server (`dido-server -pipeline on -adapt`) driven
// by a seeded load generator over its real sockets, reporting saturation
// goodput, open-loop latency, set-up time, memory and the share of frames
// answered without a retry — or, with -trace 1, per-layer costs. See
// BENCHMARK.md in this directory.
//
//	go run . -workload udp-get-zipf -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Config is the record printed beside every result so a number from another
// host can be read without digging through history.
type Config struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	NumCPU      int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Commit      string             `json:"commit"`
	Server      string             `json:"server"`
	Proto       string             `json:"proto"`
	ArenaBytes  int64              `json:"arena_bytes"`
	Population  int                `json:"population"`
	KeyLen      int                `json:"key_len"`
	ValLen      int                `json:"value_len"`
	Mix         string             `json:"mix"`
	FrameQ      int                `json:"frame_queries"`
	Conns       int                `json:"connections"`
	Window      int                `json:"window"`
	LoRate      float64            `json:"lo_frames_per_s"`
	HiRate      float64            `json:"hi_frames_per_s"`
	Phases      map[string]string  `json:"phases"`
	SleepOverUS float64            `json:"sleep_overshoot_us"`
	LateP99US   map[string]float64 `json:"gen_late_p99_us"`
	Marked      []string           `json:"marked,omitempty"`
	SetupsTimed int                `json:"setups_timed"`
	Samples     map[string]int     `json:"samples"`
	PeakRSSMiB  float64            `json:"peak_rss_mib,omitempty"`
	Outcomes    map[string]string  `json:"outcomes"`
	// Unbounded holds the open-loop percentiles that are printed but not
	// bounded in BENCHMARK.json, pooled over the rounds.
	Unbounded map[string]float64 `json:"unbounded_us,omitempty"`
	// PerRound holds each round's value of the metrics reported as
	// mid-means of rounds.
	PerRound map[string][]float64 `json:"per_round,omitempty"`
}

func main() {
	wname := flag.String("workload", "udp-get-zipf", "workload name (see BENCHMARK.md)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for WAL files and span dumps")
	commit := flag.String("commit", "", "source revision recorded in the configuration line")
	flag.Parse()

	w, ok := workloadByName(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wname)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b := &bench{
		w: w, seed: *seed, total: time.Duration(*seconds) * time.Second,
		workdir: *workdir, nconns: runtime.NumCPU(),
		pooled: map[string]*PhaseResult{}, rounds: map[string]int{},
	}
	b.cfg = Config{
		Workload: w.Name, Seed: *seed, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: *commit, Server: b.serverFlags(),
		Proto: "DKV2/UDP", ArenaBytes: w.Arena, Population: w.Population, KeyLen: w.KeyLen, ValLen: w.ValLen,
		Mix:    fmt.Sprintf("get=%.3f set=%.3f zipf=%.2f", w.GetFrac, w.SetFrac, w.ZipfS),
		FrameQ: w.FrameQ, Conns: b.nconns, Window: w.Window, LoRate: w.LoRate, HiRate: w.HiRate,
		Phases: map[string]string{}, LateP99US: map[string]float64{}, Samples: map[string]int{}, Outcomes: map[string]string{},
	}
	b.cfg.SleepOverUS = sleepOvershoot(20, time.Millisecond)
	b.zt = newZipfTable(w.Population, w.ZipfS)
	b.oracle = newOracle(w)

	var res Result
	var err error
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(b.cfg, res)
	if !res.Correct {
		os.Exit(3)
	}
}

// serverFlags renders the dido-server command line the run's server matches.
func (b *bench) serverFlags() string {
	f := "dido-server -pipeline on -adapt"
	if b.w.WAL {
		f += fmt.Sprintf(" -wal <dir> -wal-sync %v -snapshot-interval %v", walSyncInterval, snapshotInterval)
	}
	return f
}

// bench holds one run's shared state.
type bench struct {
	w       Workload
	seed    int64
	total   time.Duration
	workdir string
	nconns  int
	zt      *zipfTable
	oracle  *Oracle
	cfg     Config
	phases  []PhaseResult
	// pooled merges the rounds of each phase name; rounds counts them.
	pooled map[string]*PhaseResult
	rounds map[string]int
}

// phase runs ph against e from a collected heap, so how many collections
// fall inside it does not depend on what the phase before it left behind.
func (b *bench) phase(e *env, ph Phase) (PhaseResult, error) {
	runtime.GC()
	return b.measure(e, ph)
}

// measure runs ph against e and records its result; repeated phases of one
// name are pooled for the configuration record.
func (b *bench) measure(e *env, ph Phase) (PhaseResult, error) {
	r, err := runPhase(ph, b.nconns, b.oracle, b.zt, b.seed, e.dialer())
	if err != nil {
		return r, err
	}
	b.record(ph, r)
	return r, nil
}

// record adds one phase result to the run's totals and to the pooled result
// of its phase name, and describes the phase in the configuration record.
func (b *bench) record(ph Phase, r PhaseResult) {
	b.phases = append(b.phases, r)
	pooled, ok := b.pooled[ph.Name]
	if !ok {
		pooled = &PhaseResult{Name: ph.Name}
		b.pooled[ph.Name] = pooled
	}
	pooled.merge(&r)
	pooled.Window += r.Window
	desc := fmt.Sprintf("warm %v + %v", ph.Warm, ph.Dur)
	if ph.Rate > 0 {
		desc = fmt.Sprintf("open loop %.0f frames/s, %s", ph.Rate, desc)
	} else {
		desc = fmt.Sprintf("closed loop window %d x %d conns, %s", ph.Window, b.nconns, desc)
	}
	b.rounds[ph.Name]++
	if n := b.rounds[ph.Name]; n > 1 {
		desc = fmt.Sprintf("%s, %d rounds", desc, n)
	}
	b.cfg.Phases[ph.Name] = desc
	b.cfg.Samples[ph.Name] = len(pooled.Lat) + len(pooled.FailLat)
	b.cfg.Outcomes[ph.Name] = fmt.Sprintf("frames=%d failed=%d first_try=%d busy=%d timeouts=%d retries=%d errors=%d wrong=%d",
		pooled.Frames, pooled.Failed, pooled.FirstTry, pooled.Busy, pooled.Timeouts, pooled.Retries, pooled.Errors, pooled.Wrong)
	if ph.Rate > 0 {
		b.cfg.LateP99US[ph.Name] = lateness(pooled.Late)
	}
}

// totals sums frames attempted, frames failed and wrong answers over every
// phase run so far.
func (b *bench) totals() (attempted, failed, wrong int) {
	for _, p := range b.phases {
		attempted += p.Frames
		failed += p.Failed
		wrong += p.Wrong
	}
	return
}

// split divides the run's measured time between phases by weight.
func (b *bench) split(weight float64) time.Duration {
	return time.Duration(float64(b.total) * weight)
}

// untraced measures the end-to-end metrics: set-up, closed-loop saturation,
// open-loop latency at the workload's lo and hi rates, memory and retries.
func (b *bench) untraced() (Result, error) {
	// The run builds three servers one after another and serves a third of
	// its rounds on each: set-up time and memory are medians over the
	// three, and a server instance that runs slow for its whole life (where
	// its arena landed, what its controller settled on) weighs a third.
	// The measured time is spread over rounds of the three phases and each
	// rate or latency is the mid-mean of its per-round values (midMean), so
	// a burst of host contention (CPU steal on a shared VM) that hits a
	// round or two does not move it.
	const servers, rounds = 3, 9
	specs := []Phase{
		{Name: "sat", Window: b.w.Window, Warm: b.split(0.05 / rounds), Dur: b.split(b.w.SatW / rounds)},
		{Name: "lo", Rate: b.w.LoRate, Warm: b.split(0.025 / rounds), Dur: b.split(b.w.LoW / rounds)},
		{Name: "hi", Rate: b.w.HiRate, Warm: b.split(0.025 / rounds), Dur: b.split(b.w.HiW / rounds)},
	}
	perRound := map[string][]float64{}
	var setupS, memMiB []float64
	for sv := 0; sv < servers; sv++ {
		t0 := time.Now()
		e, err := b.setupEnv(false)
		if err != nil {
			return Result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for r := sv * rounds / servers; r < (sv+1)*rounds/servers; r++ {
			for _, ph := range specs {
				ph.Round = r
				res, err := b.phase(e, ph)
				if err != nil {
					e.close()
					return Result{}, err
				}
				switch ph.Name {
				case "sat":
					kqps := float64(res.GoodQ) / ph.Dur.Seconds() / 1e3
					perRound["sat_kqps"] = append(perRound["sat_kqps"], kqps)
				case "lo":
					v, _ := percentile(res.Lat, res.FailLat, 50)
					perRound["lo_p50_us"] = append(perRound["lo_p50_us"], v)
				case "hi":
					v, _ := percentile(res.Lat, res.FailLat, 50)
					perRound["hi_p50_us"] = append(perRound["hi_p50_us"], v)
				}
			}
		}
		memMiB = append(memMiB, retainedMiB())
		e.close()
	}
	b.cfg.PeakRSSMiB = residentMiB("VmHWM")
	b.cfg.SetupsTimed = servers
	b.cfg.PerRound = perRound

	m := map[string]Metric{
		"setup_s":   {median(setupS), "s"},
		"mem_mb":    {median(memMiB), "MiB"},
		"sat_kqps":  {midMean(perRound["sat_kqps"]), "kqueries/s"},
		"lo_p50_us": {midMean(perRound["lo_p50_us"]), "us"},
	}
	// The other percentiles are measured over the pooled rounds and printed,
	// but are not bounded metrics: on today's server the p99s sit on the
	// control plane's stall plateau, whose length follows the shared host's
	// contention, and hi_p50_us on udp-get-zipf sits on the knee where the
	// stalls start to queue (BENCHMARK.md).
	b.cfg.Unbounded = map[string]float64{}
	for _, ph := range []string{"lo", "hi"} {
		pooled := b.pooled[ph]
		for _, p := range []float64{50, 99} {
			name := fmt.Sprintf("%s_p%.0f_us", ph, p)
			v, ok := percentile(pooled.Lat, pooled.FailLat, p)
			if !ok {
				b.cfg.Marked = append(b.cfg.Marked, name+": lands on failed frames (charged the client timeout plus their time to fail)")
			}
			if late := b.cfg.LateP99US[ph]; p == 99 && lateRivals(late, v) {
				b.cfg.Marked = append(b.cfg.Marked, fmt.Sprintf("%s: generator p99 lateness %.0fus rivals it", name, late))
			}
			if name != "lo_p50_us" {
				b.cfg.Unbounded[name] = v
			}
		}
	}
	att, failed, wrong := b.totals()
	firstTry := 0
	for _, p := range b.phases {
		firstTry += p.FirstTry
	}
	// Shedding is hidden from the failure count by the client's retries;
	// the share of frames answered without one shows it.
	m["first_try_frac"] = Metric{float64(firstTry) / float64(att), "ratio"}
	return Result{Correct: wrong == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}

// printResult prints the configuration record, every metric by name with its
// unit, and the result JSON as the last line.
func printResult(cfg Config, res Result) {
	cj, _ := json.Marshal(cfg)
	fmt.Println("config " + string(cj))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range []string{"lo_p99_us", "hi_p50_us", "hi_p99_us"} {
		if v, ok := cfg.Unbounded[n]; ok {
			fmt.Printf("%-36s %14.4f %s (not bounded, see BENCHMARK.md)\n", n, v, "us")
		}
	}
	if !res.Correct {
		fmt.Println("WRONG ANSWERS: the server returned values the generator never wrote")
	}
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
}
