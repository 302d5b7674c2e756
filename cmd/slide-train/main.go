// Command slide-train trains a SLIDE (or full-softmax) model through the
// Trainer session API: in-memory datasets, streaming (out-of-core) XMC
// files, LR schedules, scheduled checkpoints, early stopping, and graceful
// cancellation (SIGINT/SIGTERM or -timeout) — reporting per-epoch loss,
// Precision@1, active-set sparsity, and wall-clock time.
//
// Usage:
//
//	slide-train -dataset amazon -scale 0.01 -epochs 3
//	slide-train -dataset text8 -scale 0.005 -hash simhash -k 7 -l 12
//	slide-train -train train.txt -test test.txt -k 6 -l 50
//	slide-train -stream big.txt -shuffle-window 8192 -epochs 0 -timeout 1h \
//	    -save model.slide -checkpoint-every 1000
//	slide-train -resume model.slide -stream big.txt -epochs 1
//	slide-train -dataset amazon -mode dense          # full-softmax baseline
//
// Fault tolerance: -retain N keeps a ring of the N last-good checkpoints
// (model.slide, model.slide.1, …); -resume loads the newest checkpoint in
// the ring that passes its per-section checksums, printing a "falling back"
// notice when the primary is torn or corrupt. The -chaos flag arms the
// deterministic fault injector (e.g. "checkpoint.write@2=cut:64" tears the
// second checkpoint write after 64 bytes) for crash-recovery drills:
//
//	slide-train -dataset amazon -epochs 1 -save model.slide \
//	    -checkpoint-every 100 -retain 3 -chaos 'checkpoint.write@2=cut:64'
//
// Numerical health: -health arms per-step NaN/Inf guards and loss-spike
// detection; -auto-rollback N closes the self-healing loop, reloading the
// newest valid checkpoint and replaying (with -rollback-lr-factor backoff)
// up to N times. Drill it with the numeric poison actions:
//
//	slide-train -dataset amazon -epochs 1 -save model.slide \
//	    -checkpoint-every 50 -retain 3 -auto-rollback 2 \
//	    -chaos 'train.batch@120=nan:0'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/slide"
)

func main() {
	var (
		ds      = flag.String("dataset", "amazon", "builtin dataset: amazon|wiki|text8 (ignored when -train/-corpus/-stream is set)")
		trainF  = flag.String("train", "", "XMC-format training file, loaded in memory (overrides -dataset)")
		streamF = flag.String("stream", "", "XMC-format training file, streamed out-of-core (overrides -dataset/-train)")
		window  = flag.Int("shuffle-window", 4096, "streaming: shuffle-buffer size in samples (0 = file order)")
		testF   = flag.String("test", "", "XMC-format test file")
		corpusF = flag.String("corpus", "", "raw text corpus for word2vec training (e.g. the real text8 file)")
		vocabN  = flag.Int("vocab", 0, "corpus: keep the N most frequent words (0 = all)")
		scale   = flag.Float64("scale", 0.01, "builtin dataset scale")
		epochs  = flag.Int("epochs", 3, "training epochs (0 = unbounded; stop via -timeout, -max-steps or signal)")
		maxStep = flag.Int64("max-steps", 0, "stop when the optimizer step count reaches this (0 = unbounded)")
		timeout = flag.Duration("timeout", 0, "cancel training after this long (0 = none); cancellation is graceful")
		batch   = flag.Int("batch", 256, "batch size")
		hidden  = flag.Int("hidden", 128, "hidden layer width")
		hash    = flag.String("hash", "dwta", "hash family: dwta|simhash")
		k       = flag.Int("k", 4, "hashes per table")
		l       = flag.Int("l", 16, "number of hash tables")
		lr      = flag.Float64("lr", 1e-4, "ADAM learning rate")
		warmup  = flag.Int64("warmup", 0, "linear LR warmup over this many steps")
		decay   = flag.Float64("lr-decay", 1, "multiply the LR by this factor every -lr-decay-every steps")
		decayN  = flag.Int64("lr-decay-every", 0, "step-decay interval (0 = no decay)")
		early   = flag.Int("early-stop", 0, "stop after this many epochs without loss improvement (0 = off)")
		earlyD  = flag.Float64("early-stop-delta", 0, "minimum loss improvement that resets early stopping")
		mode    = flag.String("mode", "slide", "slide | dense (full softmax)")
		prec    = flag.String("precision", "fp32", "fp32 | bf16act | bf16full")
		workers = flag.Int("workers", 0, "HOGWILD workers (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0, "output-layer shards for the deterministic sharded trainer (0 = HOGWILD; requires -mode slide)")
		seed    = flag.Uint64("seed", 42, "random seed")
		evalN   = flag.Int("evalsamples", 500, "test samples per evaluation")
		saveF   = flag.String("save", "", "checkpoint path (written at end of training, and every -checkpoint-every steps)")
		ckptN   = flag.Int("checkpoint-every", 0, "write -save atomically every N optimizer steps (0 = only at the end)")
		retain  = flag.Int("retain", 1, "last-good checkpoints to keep as a fallback ring (-save, -save.1, ...); -resume falls back through them")
		resumeF = flag.String("resume", "", "resume training from this checkpoint (architecture flags ignored; falls back through the -retain ring if corrupt)")

		chaos     = flag.String("chaos", "", "fault-injection scenario, e.g. 'checkpoint.write@2=cut:64,datasource.read@5=err' (crash-recovery drills)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for probabilistic chaos rules (p0.x)")

		healthOn = flag.Bool("health", false, "enable numerical health guards (NaN/Inf + loss-spike detection); training aborts on a red verdict unless -auto-rollback recovers")
		autoRB   = flag.Int("auto-rollback", 0, "on a red health verdict, roll back to the newest valid checkpoint and replay, up to N times (implies -health; needs -checkpoint-every)")
		rbLR     = flag.Float64("rollback-lr-factor", 1.0, "multiply the learning rate by this per rollback (compounding)")
	)
	flag.Parse()
	fmt.Printf("kernels: %s active (host supports: %v)\n", slide.KernelInfo(), slide.AvailableKernelModes())

	var chaosPlan *faultinject.Plan
	if *chaos != "" {
		plan, err := faultinject.Parse(*chaos, *chaosSeed)
		if err != nil {
			fail(err)
		}
		chaosPlan = plan
		faultinject.Arm(chaosPlan)
		defer faultinject.Disarm()
		fmt.Printf("chaos armed: %s (seed %d)\n", *chaos, *chaosSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Assemble the data source (and, where available, an eval split).
	var (
		src  slide.DataSource
		test *slide.Dataset
		err  error
	)
	switch {
	case *streamF != "":
		if src, err = slide.NewFileSource(*streamF, *batch, *window); err != nil {
			fail(err)
		}
		fmt.Printf("streaming %s: %d features, %d labels (shuffle window %d, memory-bounded)\n",
			src.Name(), src.Features(), src.NumLabels(), *window)
	case *corpusF != "":
		var train *slide.Dataset
		var vocab *slide.Vocabulary
		train, vocab, err = slide.OpenCorpus(*corpusF, slide.CorpusOptions{MaxVocab: *vocabN, Window: 2})
		if err != nil {
			fail(err)
		}
		fmt.Printf("corpus vocabulary: %d words (most frequent: %q)\n", vocab.Size(), vocab.Word(0))
		// Hold out the tail of the corpus samples for evaluation.
		test = train // evaluate on training head when the corpus is tiny
		if n := train.Len(); n > 2000 {
			test = train.Head(n / 10)
		}
		if src, err = slide.NewDatasetSource(train, *batch); err != nil {
			fail(err)
		}
		printDataStats(train)
	default:
		var train *slide.Dataset
		if train, test, err = loadData(*trainF, *testF, *ds, *scale, *seed); err != nil {
			fail(err)
		}
		if src, err = slide.NewDatasetSource(train, *batch); err != nil {
			fail(err)
		}
		printDataStats(train)
	}
	if *testF != "" && test == nil {
		if test, err = slide.OpenXMC(*testF); err != nil {
			fail(err)
		}
	}
	fmt.Printf("model: %d -> %d -> %d\n", src.Features(), *hidden, src.NumLabels())

	opts := []slide.Option{
		slide.WithLearningRate(*lr),
		slide.WithSeed(*seed),
	}
	if *workers > 0 {
		opts = append(opts, slide.WithWorkers(*workers))
	}
	if *shards > 0 {
		opts = append(opts, slide.WithShards(*shards))
	}
	switch *mode {
	case "dense":
		opts = append(opts, slide.WithFullSoftmax())
	case "slide":
		if *hash == "simhash" {
			opts = append(opts, slide.WithSimHash(*k, *l))
		} else {
			opts = append(opts, slide.WithDWTA(*k, *l))
		}
	default:
		fail(fmt.Errorf("unknown -mode %q", *mode))
	}
	switch *prec {
	case "fp32":
		opts = append(opts, slide.WithPrecision(slide.FP32))
	case "bf16act":
		opts = append(opts, slide.WithPrecision(slide.BF16Activations))
	case "bf16full":
		opts = append(opts, slide.WithPrecision(slide.BF16Full))
	default:
		fail(fmt.Errorf("unknown -precision %q", *prec))
	}
	if (*ds == "text8" && *trainF == "" && *streamF == "") || *corpusF != "" {
		opts = append(opts, slide.WithLinearHidden())
	}

	var m *slide.Model
	resumed := false
	if *resumeF != "" {
		var used string
		if m, used, err = slide.LoadLastGood(*resumeF, *retain); err != nil {
			fail(err)
		}
		if used != *resumeF {
			// Diagnose the primary so the operator knows what was lost; the
			// reload is cheap because a bad checkpoint fails at its checksum.
			_, perr := slide.LoadFile(*resumeF)
			if sec, off, ok := slide.CorruptSection(perr); ok {
				fmt.Printf("checkpoint %s corrupt (section %q at offset %d); falling back to %s\n",
					*resumeF, sec, off, used)
			} else {
				fmt.Printf("checkpoint %s unusable (%v); falling back to %s\n", *resumeF, perr, used)
			}
		}
		resumed = true
		fmt.Printf("resumed from %s at optimizer step %d\n", used, m.Steps())
	} else if m, err = slide.New(src.Features(), *hidden, src.NumLabels(), opts...); err != nil {
		fail(err)
	}

	// The training session.
	topts := []slide.TrainerOption{
		slide.WithEpochs(*epochs),
		slide.WithMaxSteps(*maxStep),
		slide.WithOnEpoch(func(e slide.EpochEvent) {
			p1 := 0.0
			if test != nil {
				if p1, err = m.Evaluate(test, *evalN, 1); err != nil {
					fail(err)
				}
			}
			fmt.Printf("epoch %2d  time %8.2fs  loss %7.4f  P@1 %.4f  active %6.1f (%.2f%% of outputs)\n",
				e.Epoch+1, e.TrainTime.Seconds(), e.Stats.MeanLoss, p1,
				e.Stats.MeanActive, 100*e.Stats.ActiveFraction(src.NumLabels()))
		}),
	}
	switch {
	case *warmup > 0 && *decayN > 0:
		fail(fmt.Errorf("-warmup and -lr-decay-every are mutually exclusive"))
	case *warmup > 0:
		topts = append(topts, slide.WithLRSchedule(slide.WarmupLR(*lr, *warmup)))
	case *decayN > 0:
		topts = append(topts, slide.WithLRSchedule(slide.StepDecayLR(*lr, *decay, *decayN)))
	}
	if *ckptN > 0 {
		if *saveF == "" {
			fail(fmt.Errorf("-checkpoint-every needs -save"))
		}
		topts = append(topts, slide.WithCheckpoints(*saveF, *ckptN),
			slide.WithCheckpointRetain(*retain),
			slide.WithOnCheckpoint(func(c slide.CheckpointEvent) {
				fmt.Printf("checkpoint written to %s at step %d\n", c.Path, c.Step)
			}))
	}
	if *early > 0 {
		topts = append(topts, slide.WithEarlyStopping(*early, *earlyD))
	}
	if *healthOn || *autoRB > 0 {
		topts = append(topts, slide.WithOnHealth(func(ev slide.HealthEvent) {
			fmt.Printf("health: %s\n", ev)
		}))
	}
	if *autoRB > 0 {
		topts = append(topts, slide.WithAutoRollback(*autoRB, *rbLR),
			slide.WithOnRollback(func(ev slide.RollbackEvent) {
				fmt.Printf("rolled back to %s (step %d, attempt %d/%d, lr scale %g)\n",
					ev.Checkpoint, ev.Step, ev.Attempt, *autoRB, ev.LRScale)
			}))
	}
	if resumed {
		topts = append(topts, slide.WithResume())
	}
	trainer, err := slide.NewTrainer(m, src, topts...)
	if err != nil {
		fail(err)
	}
	report, err := trainer.Run(ctx)
	if chaosPlan != nil {
		if fired := chaosPlan.Fired(); len(fired) > 0 {
			fmt.Printf("chaos: %d fault(s) injected: %v\n", len(fired), fired)
		}
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("training %s: %d steps, %d epochs, %.2fs train time\n",
		report.Reason, report.Steps, report.Epochs, report.TrainTime.Seconds())
	// The checkpoint schedule already wrote a final checkpoint at session
	// end; only the unscheduled (-save alone) path needs an explicit write.
	if *saveF != "" && (*ckptN == 0 || report.Steps == 0) {
		if err := m.SaveFile(*saveF); err != nil {
			fail(err)
		}
		fmt.Printf("checkpoint written to %s\n", *saveF)
	}
}

func printDataStats(train *slide.Dataset) {
	st := train.Stats()
	fmt.Printf("dataset %s: %d samples, %d features (%.4f%% dense), %d labels, %.1f labels/sample\n",
		train.Name(), st.Samples, st.Features, st.FeatureSparsity*100, st.Labels, st.AvgLabels)
}

func loadData(trainF, testF, ds string, scale float64, seed uint64) (train, test *slide.Dataset, err error) {
	if trainF != "" {
		if train, err = slide.OpenXMC(trainF); err != nil {
			return nil, nil, err
		}
		if testF != "" {
			if test, err = slide.OpenXMC(testF); err != nil {
				return nil, nil, err
			}
		}
		return train, test, nil
	}
	switch ds {
	case "amazon":
		return slide.AmazonLike(scale, seed)
	case "wiki":
		return slide.WikiLike(scale, seed)
	case "text8":
		return slide.Text8Like(scale, seed)
	default:
		return nil, nil, fmt.Errorf("unknown -dataset %q (amazon|wiki|text8)", ds)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "slide-train: %v\n", err)
	os.Exit(1)
}
