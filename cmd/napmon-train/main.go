// Command napmon-train trains one of the paper's Table I networks on its
// synthetic dataset and writes the model, and optionally the activation
// monitor built from it, to disk. The saved artifacts can be loaded by
// library users via the napmon package.
//
// Usage:
//
//	napmon-train -dataset mnist|gtsrb [-scale 1.0] [-gamma 2]
//	             [-model out.model] [-monitor out.monitor]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"napmon/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "napmon-train:", err)
		os.Exit(1)
	}
}

// run parses args, trains, and writes the requested files; progress lines
// go to stderr. Flags are checked before training starts.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("napmon-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ds := fs.String("dataset", "mnist", "dataset: mnist or gtsrb")
	scale := fs.Float64("scale", 1.0, "dataset scale factor")
	seed := fs.Uint64("seed", 1, "seed")
	gamma := fs.Int("gamma", 2, "monitor gamma")
	modelPath := fs.String("model", "", "write trained model to this path")
	monitorPath := fs.String("monitor", "", "write activation monitor to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gamma < 0 {
		return fmt.Errorf("-gamma %d: must be >= 0", *gamma)
	}
	logger := log.New(stderr, "napmon-train: ", 0)

	m, err := exp.TrainDataset(*ds, exp.Options{Scale: *scale, Seed: *seed, Log: stderr})
	if err != nil {
		return err
	}
	logger.Printf("%s accuracy: train %.2f%%, validation %.2f%%",
		m.Name, 100*m.TrainAcc, 100*m.ValAcc)

	if *modelPath != "" {
		if err := m.Net.SaveFile(*modelPath); err != nil {
			return err
		}
		logger.Printf("model written to %s", *modelPath)
	}
	if *monitorPath != "" {
		rows, mon, err := exp.Table2ForModel(m, []int{*gamma})
		if err != nil {
			return err
		}
		if err := mon.SaveFile(*monitorPath); err != nil {
			return err
		}
		logger.Printf("monitor (gamma=%d) written to %s; out-of-pattern %.2f%%, precision %.2f%%",
			*gamma, *monitorPath,
			100*rows[0].Metrics.OutOfPatternRate(),
			100*rows[0].Metrics.OutOfPatternPrecision())
	}
	return nil
}
