// Command napmon-experiment regenerates the paper's evaluation artifacts:
// Table I (architectures and accuracies), Table II (γ-sweeps of the
// activation monitors), the Figure 2 coarseness sweep and the Figure 3
// front-car case study.
//
// Usage:
//
//	napmon-experiment [-scale 1.0] [-seed 1] [-v] [-artifact all|table1|table2|figure2|figure3|online]
//
// A full-scale run (scale 1) takes several minutes on one core; the
// numbers recorded in EXPERIMENTS.md come from that configuration.
//
// -artifact online runs the online-phase experiment (serve-while-
// retraining): the monitor is built from half the training patterns and
// the withheld half is streamed back in through the epoch-swap updater,
// tracing detection-rate drift per published epoch against a one-shot
// full-build reference.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"napmon/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-experiment: ")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1 = full run)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	verbose := flag.Bool("v", false, "log training progress")
	artifact := flag.String("artifact", "all", "which artifact to regenerate: all, table1, table2, figure2, figure3, online")
	flag.Parse()

	opts := exp.Options{Scale: *scale, Seed: *seed}
	if *verbose {
		opts.Log = os.Stderr
	}

	switch *artifact {
	case "all", "table1", "table2", "figure2":
		runTables(opts, *artifact, os.Stdout)
		if *artifact != "all" {
			return
		}
		fallthrough
	case "figure3":
		runFrontCar(opts, os.Stdout)
	case "online":
		runOnline(opts, os.Stdout)
	default:
		log.Fatalf("unknown artifact %q", *artifact)
	}
}

// runOnline runs the online-phase experiment: serve-while-retraining via
// epoch-swap updates of the MNIST monitor.
func runOnline(opts exp.Options, w io.Writer) {
	log.Printf("running online phase (epoch-swap updates, scale %.2f)...", opts.Scale)
	res, err := exp.OnlineStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w, exp.RenderOnline(res))
}

// runTables trains both Table I networks once and derives the requested
// artifacts from them.
func runTables(opts exp.Options, artifact string, w io.Writer) {
	start := time.Now()
	log.Printf("training network 1 (MNIST-like, scale %.2f)...", opts.Scale)
	m1, err := exp.TrainMNIST(opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training network 2 (GTSRB-like)...")
	m2, err := exp.TrainGTSRB(opts)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training done in %v", time.Since(start).Round(time.Second))

	if artifact == "all" || artifact == "table1" {
		fmt.Fprintln(w, exp.RenderTable1(exp.Table1Rows(m1, m2)))
	}
	if artifact == "table1" {
		return
	}

	rows1, mon1, err := exp.Table2ForModel(m1, []int{0, 1, 2})
	if err != nil {
		log.Fatal(err)
	}
	rows2, mon2, err := exp.Table2ForModel(m2, []int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	// Assert (not eyeball) that the compiled serving path reproduces
	// Definition 2's verdicts on every validation input of both monitors
	// before reporting any numbers computed on it.
	for _, v := range []struct {
		m   *exp.Model
		mon *exp.Monitor
	}{{m1, mon1}, {m2, mon2}} {
		n, flips, err := exp.VerifyCompiledServing(v.m, v.mon)
		if err != nil {
			log.Fatalf("compiled serving diverges from Definition 2: %v", err)
		}
		log.Printf("network %d: compiled serving path verified against Definition 2 (exact Hamming zones) on %d validation inputs, %d float32 sign flips within ε of 0", v.m.ID, n, flips)
	}
	if artifact == "all" || artifact == "table2" {
		fmt.Fprintln(w, exp.RenderTable2(append(rows1, rows2...)))
	}
	if artifact == "table2" {
		return
	}

	pts := exp.Figure2Sweep(m1, mon1, 10)
	fmt.Fprintln(w, exp.RenderFigure2(pts))
}

func runFrontCar(opts exp.Options, w io.Writer) {
	log.Printf("running front-car case study...")
	res, _, err := exp.FrontCarStudy(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(w, exp.RenderFrontCar(res))
}
