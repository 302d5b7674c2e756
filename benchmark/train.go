package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"time"

	"github.com/slide-cpu/slide/slide"
)

// trainPlan sizes one training workload. Steps are absolute optimizer
// steps of the model: warm steps run untimed, the window then runs for the
// requested seconds and at least until evalStep, where accuracy (and, for
// the deterministic engine, the checkpoint hash) is taken — a fixed sample
// budget, so the figure does not depend on how fast the box is.
type trainPlan struct {
	fixture func(seed uint64, smoke bool) (*fixture, error)
	shards  int
	// blockSteps is what a throughput block's step count is a multiple of:
	// the rebuild period, so each block carries the same number of rebuilds.
	blockSteps int
	warm       int
	evalStep   int64
}

func trainPlanFor(c *runConfig) trainPlan {
	var p trainPlan
	switch c.workload {
	case "train_text8":
		p = trainPlan{fixture: text8S, warm: 8, evalStep: 100}
	case "train_sharded":
		p = trainPlan{fixture: amazonS, shards: 4, warm: 40, evalStep: 160}
	default:
		p = trainPlan{fixture: amazonS, warm: 40, evalStep: 240}
	}
	p.blockSteps = rebuildEvery
	if c.smoke {
		p.warm, p.evalStep, p.blockSteps = 2, 8, 1
	}
	return p
}

type trainInstance struct {
	f *fixture
	m *slide.Model
}

// trainWindow is what one timed stretch of slide.Trainer.Run produced.
type trainWindow struct {
	ops         []op // one per measured step; the timeline skips hook time
	activeSum   float64
	samples     int
	failed      int64 // steps with a non-finite loss
	trainTime   time.Duration
	wall, hooks time.Duration
}

// stepSecs returns each measured step's duration in seconds.
func (w *trainWindow) stepSecs() []float64 {
	out := make([]float64, len(w.ops))
	for i, o := range w.ops {
		out[i] = o.end - o.start
	}
	return out
}

// trainRun is one timed stretch of slide.Trainer.Run over a fixture: warm
// untimed steps, then timed steps until seconds have been measured, the
// model has reached untilStep and done (when set) agrees.
//
// Step time is hook-to-hook, so it covers batch assembly, the step and the
// rebuild schedule. publish runs first in the hook and is charged to the
// step that triggered it (a trainer that publishes pays for publishing);
// atStep and the reference slices run after the clock is read and cost the
// window nothing.
type trainRun struct {
	in        *trainInstance
	warm      int
	seconds   float64
	minSteps  int // timed steps the window needs before it may close
	untilStep int64
	publish   func(step int64)
	atStep    func(step int64)
	done      func() bool
	ref       *reference // nil: no slices
	tr        *tracer
}

func (r trainRun) run() (*trainWindow, error) {
	src, err := slide.NewDatasetSource(r.in.f.train, r.in.f.batch)
	if err != nil {
		return nil, err
	}
	w := &trainWindow{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstTimed := r.in.m.Steps() + int64(r.warm) + 1
	var elapsed float64
	var prevExit time.Time
	hook := func(e slide.BatchEvent) {
		stepEnd := time.Now()
		if r.publish != nil {
			r.publish(e.Step)
		}
		now := time.Now()
		if e.Step >= firstTimed {
			d := now.Sub(prevExit).Seconds()
			w.ops = append(w.ops, op{start: elapsed, end: elapsed + d, units: e.Stats.Samples})
			elapsed += d
			w.samples += e.Stats.Samples
			w.activeSum += e.Stats.MeanActive * float64(e.Stats.Samples)
			r.tr.add("slide.Trainer.step", -1, e.Step, prevExit, stepEnd)
		}
		if math.IsNaN(e.Stats.MeanLoss) || math.IsInf(e.Stats.MeanLoss, 0) {
			w.failed++
		}
		if r.atStep != nil {
			r.atStep(e.Step)
		}
		if e.Step+1 >= firstTimed {
			r.ref.due() // the workers are idle while the hook runs
		}
		if elapsed >= r.seconds && e.Step >= r.untilStep && len(w.ops) >= max(r.minSteps, minBlocks) && (r.done == nil || r.done()) {
			cancel()
		}
		prevExit = time.Now()
		w.hooks += prevExit.Sub(now)
	}
	t, err := slide.NewTrainer(r.in.m, src, slide.WithEpochs(0), slide.WithOnBatch(hook))
	if err != nil {
		return nil, err
	}
	prevExit = time.Now()
	start := prevExit
	rep, err := t.Run(ctx)
	if err != nil {
		return nil, err
	}
	w.wall = time.Since(start)
	w.trainTime = rep.TrainTime
	return w, nil
}

func runTrain(c *runConfig) (*result, error) {
	res := newResult(c)
	plan := trainPlanFor(c)
	ref := c.reference(c.procs)
	in, setupS, err := repeatSetup(c, ref, func() (*trainInstance, error) {
		f, err := plan.fixture(c.seed, c.smoke)
		if err != nil {
			return nil, err
		}
		m, err := f.newModel(c.seed, c.procs, plan.shards)
		if err != nil {
			return nil, err
		}
		return &trainInstance{f: f, m: m}, nil
	}, func(*trainInstance) {})
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceTrain(c, res, plan, in)
	}
	res.setup(setupS, ref)

	var snap *slide.Predictor
	atStep := func(step int64) {
		if step != plan.evalStep {
			return
		}
		snap = in.m.Snapshot()
		if plan.shards > 0 {
			// The sharded engine is deterministic: its checkpoint after a
			// fixed number of steps must repeat to the byte.
			h := sha256.New()
			if err := in.m.Save(h); err == nil {
				res.Exact["weights_sha256"] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	w, err := trainRun{in: in, warm: plan.warm, seconds: c.seconds, minSteps: minBlocks * plan.blockSteps,
		untilStep: plan.evalStep, atStep: atStep, ref: ref}.run()
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(plan.warm + len(w.ops))
	res.Failed = w.failed
	res.Counts["steps"] = int64(len(w.ops))
	res.Counts["samples"] = int64(w.samples)

	res.window(ref)
	blocks := blockThroughput(w.ops, plan.blockSteps)
	res.setRate("throughput", summarize(blocks))
	// A step's latency as a trainer's user meets it: the median block's time
	// per step, so with its share of the rebuild every rebuildEvery steps. (The
	// median single step is a plain one, whose time moves more with the box's
	// memory speed than a rebuild's does; it is network.train_step_ms of the
	// traced run.)
	steps := make([]op, len(w.ops))
	for i, o := range w.ops {
		steps[i] = op{start: o.start, end: o.end, units: 1}
	}
	res.setTime("latency_p50_ms", 1e3/median(blockThroughput(steps, plan.blockSteps)), res.Reference.WindowFactor)

	p1, err := snap.Evaluate(in.f.test, in.f.evalSamples, 1)
	if err != nil {
		return nil, err
	}
	res.set("p_at_1", p1)
	res.check("finite_loss", w.failed == 0, "%d of %d steps non-finite", w.failed, res.Attempted)
	res.check("p_at_1_floor", c.smoke || p1 >= in.f.p1Floor,
		"p@1 %.4f after %d steps, floor %.4f (chance %.5f)", p1, plan.evalStep, in.f.p1Floor, 1/float64(in.f.train.NumLabels()))
	if plan.shards > 0 {
		res.check("weights_sha256", res.Exact["weights_sha256"] != "", "checkpoint at step %d hashed", plan.evalStep)
	}

	res.finish()
	return res, nil
}
