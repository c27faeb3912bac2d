// Command kofltrace runs a short simulation with full tracing and renders
// what the paper's figures show: the virtual ring (Figure 4), a token's
// depth-first path (Figure 1), and — in -events mode — the raw event log of
// deliveries, reservations, critical sections, circulations and resets.
//
// Examples:
//
//	kofltrace                      # Figure 1 + 4 rendering on the paper tree
//	kofltrace -events -steps 400   # raw event log of a full-protocol run
package main

import (
	"flag"
	"fmt"
	"log"

	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/sim"
	"kofl/internal/trace"
	"kofl/internal/tree"
	"kofl/internal/viz"
	"kofl/internal/workload"
)

func main() {
	events := flag.Bool("events", false, "print the raw event log of a full-protocol run")
	steps := flag.Int64("steps", 300, "steps to trace in -events mode")
	laps := flag.Int("laps", 2, "token laps to trace in figure mode")
	seed := flag.Int64("seed", 1, "scheduler seed")
	flag.Parse()

	tr := tree.Paper()
	fmt.Printf("tree:\n%s\n", viz.Tree(tr))

	// Figure 4: the virtual ring.
	fmt.Println("virtual ring (Figure 4): one position per directed edge, 2(n-1) total")
	fmt.Printf("  %s\n", viz.Ring(tr))
	fmt.Printf("  ring length = %d = 2(n-1) with n=%d\n\n", tr.RingLen(), tr.N())

	if !*events {
		// Figure 1: a single resource token circulating depth-first.
		cfg := core.Config{K: 1, L: 1, N: tr.N(), CMAX: 0, Features: core.Naive()}
		s, err := sim.New(tr, cfg, sim.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		s.Seed(tr.Root(), 0, message.NewRes())
		lg := trace.New(s, 0)
		s.Run(int64(*laps * tr.RingLen()))
		path := lg.TokenPath(message.Res)
		fmt.Printf("token path over %d laps (Figure 1):\n  %s %s\n",
			*laps, tr.Name(tr.Root()), lg.NamePath(path))
		return
	}

	// Raw event log of the full protocol bootstrapping and serving requests.
	cfg := core.Config{K: 3, L: 5, N: tr.N(), CMAX: core.DefaultCMAX, Features: core.Full()}
	s, err := sim.New(tr, cfg, sim.Options{Seed: *seed, TimeoutTicks: 50})
	if err != nil {
		log.Fatal(err)
	}
	lg := trace.New(s, int(*steps)*4)
	for p := 0; p < tr.N(); p++ {
		workload.Attach(s, p, workload.Fixed(1+p%3, 5, 20, 0))
	}
	s.Run(*steps)
	fmt.Printf("event log (%d steps):\n%s\n", *steps, lg)
	fmt.Println(viz.Snapshot(s))
}
