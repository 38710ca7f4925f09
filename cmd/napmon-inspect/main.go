// Command napmon-inspect prints the contents of saved model and monitor
// files: architectures, parameter counts, per-class comfort-zone sizes
// (pattern counts, BDD node counts and the bytes of every cached level's
// compiled plan — what a serving process holds for the zone), and
// optionally a Graphviz DOT rendering of one class's zone.
//
// Usage:
//
//	napmon-inspect -model net.model
//	napmon-inspect -monitor stop.monitor [-dot 14 > zone14.dot]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"napmon/internal/core"
	"napmon/internal/nn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "napmon-inspect:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("napmon-inspect", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model file to inspect")
	monitorPath := fs.String("monitor", "", "monitor file to inspect")
	dotClass := fs.Int("dot", -1, "write the DOT rendering of this class's zone to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" && *monitorPath == "" {
		return errors.New("nothing to inspect; pass -model and/or -monitor")
	}
	if *modelPath != "" {
		if err := inspectModel(stdout, *modelPath); err != nil {
			return err
		}
	}
	if *monitorPath != "" {
		return inspectMonitor(stdout, *monitorPath, *dotClass)
	}
	return nil
}

func inspectModel(w io.Writer, path string) error {
	net, err := nn.LoadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model %s\n  architecture: %v\n", path, net)
	totalParams := 0
	for _, p := range net.Params() {
		fmt.Fprintf(w, "  %-16s %v (%d values)\n", p.Name, p.Value.Shape(), p.Value.Len())
		totalParams += p.Value.Len()
	}
	fmt.Fprintf(w, "  total learnable parameters: %d\n", totalParams)
	return nil
}

func inspectMonitor(w io.Writer, path string, dotClass int) error {
	mon, err := core.LoadFile(path)
	if err != nil {
		return err
	}
	cfg := mon.Config()
	fmt.Fprintf(w, "monitor %s\n  layer %d, gamma %d, %d/%d neurons monitored\n",
		path, cfg.Layer, mon.Gamma(), len(mon.Neurons()), mon.LayerWidth())
	fmt.Fprintf(w, "  monitored neurons: %v\n", mon.Neurons())
	fmt.Fprintln(w, "  class  inserted  patterns(at gamma)  bdd-nodes  plan-bytes(level 0..)")
	planTotal := 0
	for _, c := range mon.Classes() {
		z := mon.Zone(c)
		levels := z.PlanBytes()
		fmt.Fprintf(w, "  %5d  %8d  %18.0f  %9d  %v\n",
			c, z.InsertCount(), z.PatternCount(), z.NodeCount(), levels)
		for _, b := range levels {
			planTotal += b
		}
	}
	fmt.Fprintf(w, "  total BDD nodes: %d\n  total plan bytes: %d\n", mon.StorageNodes(), planTotal)

	if dotClass >= 0 {
		z := mon.Zone(dotClass)
		if z == nil {
			return fmt.Errorf("class %d is not monitored", dotClass)
		}
		fmt.Fprint(w, z.Dot(fmt.Sprintf("zone_%d", dotClass)))
	}
	return nil
}
