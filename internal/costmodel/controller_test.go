package costmodel

import (
	"testing"
	"time"

	"repro/internal/apu"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/store"
	"repro/internal/task"
)

func newTestController() *Controller {
	pl := NewPlanner(apu.KaveriPlatform(), 333*time.Microsecond)
	st := store.New(store.Config{MemoryBytes: 4 << 20, IndexEntries: 10000, Seed: 1})
	return NewController(pl, profiler.New(st), pipeline.DefaultLiveConfig(), nil)
}

func measuredBatch(getRatio float64) *pipeline.Batch {
	b := &pipeline.Batch{}
	b.Profile = task.Profile{
		N:                1024,
		GetRatio:         getRatio,
		KeySize:          16,
		ValueSize:        64,
		Population:       100000,
		AvgInsertBuckets: 2,
		SearchProbes:     1.5,
		WireQueryBytes:   24,
		RVUnitNanos:      200,
		SDUnitNanos:      300,
	}
	b.Times.Tmax = 200 * time.Microsecond
	return b
}

func TestControllerFirstBatchReplans(t *testing.T) {
	c := newTestController()
	cfg0, n0 := c.NextConfig(nil)
	if cfg0 != pipeline.DefaultLiveConfig() || n0 < 1 {
		t.Fatalf("initial NextConfig = %v/%d", cfg0, n0)
	}
	cfg1, n1 := c.NextConfig(measuredBatch(0.95))
	if c.Replans() != 1 {
		t.Fatalf("Replans = %d, want 1 (first profile always replans)", c.Replans())
	}
	if n1 < 1 {
		t.Fatalf("batch size %d", n1)
	}
	if cfg1.WorkStealing {
		t.Fatal("live controller must not install work-stealing configs")
	}
	if cfg1 != c.CurrentConfig() {
		t.Fatal("CurrentConfig disagrees with NextConfig")
	}
}

func TestControllerStableWorkloadNoReplan(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	c.NextConfig(measuredBatch(0.95))
	base := c.Replans()
	for i := 0; i < 10; i++ {
		c.NextConfig(measuredBatch(0.95))
	}
	if c.Replans() != base {
		t.Fatalf("Replans moved %d → %d on a stable workload", base, c.Replans())
	}
	// Between replans, batch size follows the Tmax feedback: a batch far
	// under the interval grows the target.
	before := c.Sizer.Current()
	fast := measuredBatch(0.95)
	fast.Times.Tmax = 50 * time.Microsecond
	_, n := c.NextConfig(fast)
	if n <= before && before < c.Planner.MaxBatch {
		t.Fatalf("feedback sizing: %d → %d, want growth", before, n)
	}
}

func TestControllerTraceRecordsEveryDecision(t *testing.T) {
	c := newTestController()
	c.Trace = obs.NewTraceRing(16)
	c.NextConfig(nil) // initial handout: no completed batch, no event
	if got := c.Trace.Total(); got != 0 {
		t.Fatalf("initial NextConfig traced %d events, want 0", got)
	}

	// First measured batch always replans (profiler baseline).
	b := measuredBatch(0.95)
	b.Seq = 7
	b.Wall = 250 * time.Microsecond
	cfg1, n1 := c.NextConfig(b)
	// A stable follow-up is a "keep" decision — still traced.
	c.NextConfig(measuredBatch(0.95))

	if got := c.Trace.Total(); got != 2 {
		t.Fatalf("traced %d events over 2 decisions", got)
	}
	ev := c.Trace.Snapshot()
	first, second := ev[0], ev[1]

	if !first.Replan {
		t.Fatal("first measured batch must trace as a replan")
	}
	if first.Seq != 7 {
		t.Fatalf("Seq = %d, want 7", first.Seq)
	}
	if first.Old != pipeline.DefaultLiveConfig() {
		t.Fatalf("old config = %v, want the initial config", first.Old)
	}
	if first.New != cfg1 || first.NewTarget != n1 {
		t.Fatalf("new (%v, %d) disagrees with NextConfig (%v, %d)",
			first.New, first.NewTarget, cfg1, n1)
	}
	if first.Profile.GetRatio != 0.95 {
		t.Fatalf("profile not recorded: %+v", first.Profile)
	}
	if first.RealizedTmax != 200*time.Microsecond || first.RealizedWall != 250*time.Microsecond {
		t.Fatalf("realized tmax=%v wall=%v", first.RealizedTmax, first.RealizedWall)
	}
	if first.PredictedTmax <= 0 {
		t.Fatal("replan event missing the planner's predicted Tmax")
	}
	if first.When.IsZero() {
		t.Fatal("event not timestamped")
	}

	if second.Replan {
		t.Fatal("stable workload decision traced as a replan")
	}
	if second.Old != second.New {
		t.Fatalf("keep decision changed config: %v → %v", second.Old, second.New)
	}
	// The keep decision still reports the standing plan's prediction.
	if second.PredictedTmax != first.PredictedTmax {
		t.Fatalf("keep event prediction %v != standing plan %v",
			second.PredictedTmax, first.PredictedTmax)
	}
}

func TestControllerWorkloadShiftReplans(t *testing.T) {
	c := newTestController()
	c.NextConfig(nil)
	c.NextConfig(measuredBatch(0.95))
	base := c.Replans()
	// >10% move on the GET ratio must re-trigger the planner (the paper's
	// adaptation threshold).
	c.NextConfig(measuredBatch(0.50))
	if c.Replans() != base+1 {
		t.Fatalf("Replans = %d after workload shift, want %d", c.Replans(), base+1)
	}
}
