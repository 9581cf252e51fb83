package costmodel

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/task"
)

// Controller closes the paper's adaptation loop over the *live* serving
// pipeline: it implements pipeline.ConfigProvider by feeding each completed
// batch's measured profile through the workload profiler and, when the
// profiler's 10% change trigger fires, re-running the cost-model search to
// install a new (config, batch size) pair at the next batch boundary. It is
// the live analogue of internal/dido.System.NextConfig, consuming profiles
// measured on real hardware instead of the simulator's.
//
// The search runs over pipeline shapes and index assignments only: the live
// stage workers execute every batch with fixed assignment, so a
// work-stealing config (the simulator's §III-B3 co-processing) would
// advertise a batch size the executor cannot deliver.
type Controller struct {
	Planner  *Planner
	Profiler *profiler.Profiler
	Sizer    *pipeline.BatchSizer
	// Trace, when set, receives one event per batch-boundary decision —
	// replans and keeps alike — making the adaptation loop auditable from
	// the admin endpoint (/trace). Appending is O(1) and allocation-free,
	// so tracing is safe to leave on in production.
	Trace *obs.TraceRing

	mu       sync.Mutex
	cfg      pipeline.Config
	replans  uint64
	lastPred Prediction // most recent installed plan; Tmax is its prediction
}

// NewController returns a controller starting at initial. A nil sizer gets
// one derived from the planner's interval and batch bounds.
func NewController(pl *Planner, prof *profiler.Profiler, initial pipeline.Config, sizer *pipeline.BatchSizer) *Controller {
	if sizer == nil {
		sizer = &pipeline.BatchSizer{Interval: pl.Interval, Min: pl.MinBatch, Max: pl.MaxBatch}
		sizer.Set(pipeline.DefaultInitialBatch)
	}
	return &Controller{Planner: pl, Profiler: prof, Sizer: sizer, cfg: initial}
}

// keep filters the search to non-stealing variants: the live executor has
// no work stealing, so the controller never installs a WorkStealing config.
func (c *Controller) keep(cfg pipeline.Config) bool { return !cfg.WorkStealing }

// NextConfig implements pipeline.ConfigProvider. The live runner serializes
// calls (one per batch boundary), so the only concurrency to guard is the
// accessor methods.
func (c *Controller) NextConfig(prev *pipeline.Batch) (pipeline.Config, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev == nil {
		return c.cfg, c.Sizer.Current()
	}
	oldCfg, oldTarget := c.cfg, c.Sizer.Current()
	measured, replan := c.Profiler.Observe(prev.Profile)
	replanned := false
	var target int
	if replan {
		pp := c.plannerProfile(measured)
		best, _ := c.Planner.BestFiltered(pp, c.keep)
		if best.ThroughputOPS > 0 {
			c.cfg = best.Config
			c.Sizer.Set(best.Batch)
			c.replans++
			c.lastPred = best
			replanned = true
			target = c.Sizer.Current()
		}
	}
	if !replanned {
		// Between replans the batch size follows the shared feedback
		// controller, nudging measured Tmax toward the scheduling interval.
		target = c.Sizer.Observe(prev)
	}
	if c.Trace != nil {
		c.Trace.Append(obs.TraceEvent{
			When:          time.Now(),
			Seq:           prev.Seq,
			Replan:        replanned,
			Old:           oldCfg,
			New:           c.cfg,
			OldTarget:     oldTarget,
			NewTarget:     target,
			Profile:       measured,
			PredictedTmax: c.lastPred.Tmax,
			RealizedTmax:  prev.Times.Tmax,
			RealizedWall:  prev.Wall,
		})
	}
	return c.cfg, target
}

// plannerProfile strips measurements the cost model must derive analytically
// (same honesty rule as the simulated loop: the planner computes the
// cache-hit portion from Zipf's law, it does not get told).
func (c *Controller) plannerProfile(p task.Profile) task.Profile {
	p.CacheHitPortion = 0
	return p
}

// Replans returns how many times the loop installed a re-planned config.
func (c *Controller) Replans() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replans
}

// CurrentConfig returns the config the controller last handed out.
func (c *Controller) CurrentConfig() pipeline.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}
