// Command koflbench regenerates every table and figure of the paper's
// evaluation (internal/experiments has one driver per id): the figure
// reproductions F1-F4, the theorem experiments T1-T2, the liveness check
// L14, the errata ablations A1-A2, the variant ladder A3 and the
// performance sweeps P1-P2.
//
// Usage:
//
//	koflbench [-seed N] [-quick] [-exp F1,T2,...] [-cpuprofile FILE] [-memprofile FILE]
//
// The profile flags capture pprof data over the experiment sweep — the
// supported way to profile the kernel under a realistic mixed load rather
// than a micro-benchmark: -cpuprofile records CPU samples for the whole run,
// -memprofile writes an end-of-run heap profile (after a final GC).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kofl/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 7, "random seed for every experiment")
	quick := flag.Bool("quick", false, "trim the sweeps for a fast regeneration")
	exp := flag.String("exp", "", "comma-separated experiment ids to run (default all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to `file`")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to `file`")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "koflbench: create cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "koflbench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	start := time.Now()
	n := 0
	for _, tb := range experiments.All(*seed, *quick) {
		if len(want) > 0 && !want[strings.ToUpper(tb.ID)] {
			continue
		}
		fmt.Println(tb)
		n++
	}
	if n == 0 {
		fmt.Fprintf(os.Stderr, "koflbench: no experiment matched %q\n", *exp)
		os.Exit(1)
	}
	fmt.Printf("regenerated %d experiment(s) in %v (seed=%d quick=%v)\n",
		n, time.Since(start).Round(time.Millisecond), *seed, *quick)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "koflbench: create mem profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // materialize the retained-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "koflbench: write mem profile: %v\n", err)
			os.Exit(1)
		}
	}
}
