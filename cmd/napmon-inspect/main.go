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
	"flag"
	"fmt"
	"log"
	"os"

	"napmon/internal/core"
	"napmon/internal/nn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("napmon-inspect: ")
	modelPath := flag.String("model", "", "model file to inspect")
	monitorPath := flag.String("monitor", "", "monitor file to inspect")
	dotClass := flag.Int("dot", -1, "write the DOT rendering of this class's zone to stdout")
	flag.Parse()

	if *modelPath == "" && *monitorPath == "" {
		log.Fatal("nothing to inspect; pass -model and/or -monitor")
	}
	if *modelPath != "" {
		inspectModel(*modelPath)
	}
	if *monitorPath != "" {
		inspectMonitor(*monitorPath, *dotClass)
	}
}

func inspectModel(path string) {
	net, err := nn.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s\n  architecture: %v\n", path, net)
	totalParams := 0
	for _, p := range net.Params() {
		fmt.Printf("  %-16s %v (%d values)\n", p.Name, p.Value.Shape(), p.Value.Len())
		totalParams += p.Value.Len()
	}
	fmt.Printf("  total learnable parameters: %d\n", totalParams)
}

func inspectMonitor(path string, dotClass int) {
	mon, err := core.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	cfg := mon.Config()
	fmt.Printf("monitor %s\n  layer %d, gamma %d, %d/%d neurons monitored\n",
		path, cfg.Layer, mon.Gamma(), len(mon.Neurons()), mon.LayerWidth())
	fmt.Printf("  monitored neurons: %v\n", mon.Neurons())
	fmt.Println("  class  inserted  patterns(at gamma)  bdd-nodes  plan-bytes(level 0..)")
	planTotal := 0
	for _, c := range mon.Classes() {
		z := mon.Zone(c)
		levels := z.PlanBytes()
		fmt.Printf("  %5d  %8d  %18.0f  %9d  %v\n",
			c, z.InsertCount(), z.PatternCount(), z.NodeCount(), levels)
		for _, b := range levels {
			planTotal += b
		}
	}
	fmt.Printf("  total BDD nodes: %d\n  total plan bytes: %d\n", mon.StorageNodes(), planTotal)

	if dotClass >= 0 {
		z := mon.Zone(dotClass)
		if z == nil {
			log.Fatalf("class %d is not monitored", dotClass)
		}
		fmt.Fprintln(os.Stderr, "writing DOT to stdout")
		fmt.Print(z.Manager().Dot(z.Root(), fmt.Sprintf("zone_%d", dotClass)))
	}
}
