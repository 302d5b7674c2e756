// Ablation walkthrough: measures, on one workload, the individual effect of
// each optimization the paper adds to SLIDE — vectorized kernels (§4.2),
// memory layout (§4.1), and the BF16 modes (§4.4; bfloat16 rows widen into
// float32 arithmetic here, so it demonstrates the accuracy behaviour rather
// than the hardware's speedup).
//
//	go run ./examples/ablation [-scale 0.003] [-epochs 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/slide-cpu/slide/slide"
)

type variant struct {
	name    string
	kernels slide.KernelMode
	opts    []slide.Option
}

func main() {
	scale := flag.Float64("scale", 0.003, "dataset scale")
	epochs := flag.Int("epochs", 2, "epochs per variant")
	flag.Parse()

	train, test, err := slide.AmazonLike(*scale, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d samples, %d features, %d labels\n\n",
		train.Len(), train.Features(), train.NumLabels())

	base := []slide.Option{
		slide.WithDWTA(4, 16),
		slide.WithLearningRate(1e-3),
		slide.WithSeed(13),
	}
	// VectorKernels resolves to the best tier the host supports (AVX-512 or
	// AVX2 assembly where CPUID reports it, portable Go elsewhere); the
	// labels report which tier actually ran via slide.KernelInfo().
	slide.SetKernelMode(slide.VectorKernels)
	fmt.Printf("host kernel tiers: %v\n\n", slide.AvailableKernelModes())
	vec := "optimized (" + slide.KernelInfo() + " kernels, coalesced, fp32)"
	variants := []variant{
		{vec, slide.VectorKernels,
			append([]slide.Option{slide.WithMemoryLayout(slide.Coalesced)}, base...)},
		{"no vectorization", slide.ScalarKernels,
			append([]slide.Option{slide.WithMemoryLayout(slide.Coalesced)}, base...)},
		{"fragmented parameters", slide.VectorKernels,
			append([]slide.Option{slide.WithMemoryLayout(slide.Fragmented)}, base...)},
		{"bf16 activations", slide.VectorKernels,
			append([]slide.Option{slide.WithPrecision(slide.BF16Activations)}, base...)},
		{"bf16 weights+activations", slide.VectorKernels,
			append([]slide.Option{slide.WithPrecision(slide.BF16Full)}, base...)},
	}

	fmt.Printf("%-38s %10s %8s\n", "variant", "s/epoch", "P@1")
	var baseline float64
	for i, v := range variants {
		slide.SetKernelMode(v.kernels)
		m, err := slide.New(train.Features(), 128, train.NumLabels(), v.opts...)
		if err != nil {
			log.Fatal(err)
		}
		src, err := slide.NewDatasetSource(train, 256)
		if err != nil {
			log.Fatal(err)
		}
		trainer, err := slide.NewTrainer(m, src, slide.WithEpochs(*epochs))
		if err != nil {
			log.Fatal(err)
		}
		report, err := trainer.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		perEpoch := report.TrainTime.Seconds() / float64(*epochs)
		p1, err := m.Evaluate(test, 300, 1)
		if err != nil {
			log.Fatal(err)
		}
		suffix := ""
		if i == 0 {
			baseline = perEpoch
		} else {
			suffix = fmt.Sprintf("  (%.2fx vs optimized)", perEpoch/baseline)
		}
		fmt.Printf("%-38s %10.2f %8.3f%s\n", v.name, perEpoch, p1, suffix)
	}
	slide.SetKernelMode(slide.VectorKernels)

	fmt.Println("\nnotes: BF16 here widens bfloat16 rows into float32 arithmetic, which saves no")
	fmt.Println("time — with native AVX512-BF16 dot products it is a speedup (paper Table 3);")
	fmt.Println("accuracy parity reproduces here.")
}
