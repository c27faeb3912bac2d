// Command benchmark is the repository's one benchmark: a seeded, end-to-end
// measurement of the lease server, the simulator and the campaign engine,
// with a traced pass that attributes the result to layers. See README.md.
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [-out DIR] [-quick]
//	bash benchmark/run.sh -compare A B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strings"
)

// perLayerNames is every per-layer metric, in the order the traced pass
// prints them (BENCHMARK.json lists the same names).
var perLayerNames = []string{
	"serve.acquire_p50_ms", "serve.grants_per_s", "serve.acquire_p99_ms", "serve.stats_rtt_us_p50", "serve.server_p50_us", "serve.server_p99_us",
	"serve.frame_roundtrip_ns", "serve.batch_size_mean", "serve.frames_per_grant", "serve.queue_depth_max",
	"serve.max_units_held", "serve.overprovision_units_max",
	"serve.rejects_overload", "serve.rejects_deadline", "serve.dedupe_hits", "serve.leases_expired",
	"runtime.cycle_us_p50", "runtime.cycle_us_p99", "runtime.bootstrap_ms",
	"runtime.restabilize_ms_p50", "runtime.restabilize_ms_max", "runtime.restabilize_count",
	"runtime.timeouts", "runtime.frames_dropped", "runtime.frames_rejected", "runtime.frames_paced",
	"loadgen.late_ms_p99", "loadgen.late_ms_max",
	"core.handle_res_ns", "core.handle_ctrl_ns", "channel.push_pop_ns", "message.encode_decode_ns",
	"sim.step_ns", "sim.segment_spread_frac", "sim.new_ms", "sim.tree_build_ms",
	"sim.monitor_overhead_frac", "sim.obs_overhead_frac",
	"sim.converge_steps", "sim.grants", "sim.final_clock", "sim.allocs_per_step",
	"campaign.plan_ms", "campaign.execute_ms", "campaign.merge_ms", "campaign.report_ms",
	"campaign.allocs_per_slot", "campaign.new_share", "campaign.worker_speedup",
	"campaign.report_sha256", "campaign.diverged_storm_runs", "campaign.max_waiting_ratio",
	"trace.overhead_frac",
}

// runFile is the one record format: a JSON file per run under -out.
type runFile struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Quick      bool             `json:"quick"`
	Workloads  []workloadResult `json:"workloads"`
}

// driverLine is the last line of standard output, in the shape the
// benchmark contract fixes.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	workload := fs.String("workload", "", "workload to run (default: every workload in turn)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of tree shapes, schedulers, unit sizes, request ids and faults")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = the traced pass: per-layer metrics, spans and tracing overhead")
	fs.StringVar(&cfg.out, "out", "benchmark/out", "directory for the result file and trace files")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke run: 0.3 s in two rounds per workload, correctness gate on, numbers meaningless")
	compare := fs.Bool("compare", false, "compare two result files or directories of them: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A B (result files, or directories of result files)")
			return 2
		}
		ok, err := compareSets(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	cfg.traced = *trace != 0
	if cfg.quick {
		cfg.seconds = 0.3
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	defs := workloads
	if *workload != "" {
		d, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{d}
	}

	file := runFile{
		Commit: gitCommit(), GoVersion: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NumCPU: goruntime.NumCPU(), Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Quick: cfg.quick,
	}
	code := 0
	for _, def := range defs {
		res, tr, err := runWorkload(def, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		file.Workloads = append(file.Workloads, *res)
		if !res.Correct {
			code = 1
		}
		printWorkload(res)
		if tr != nil {
			name := fmt.Sprintf("trace-%s.json", def.name)
			tf := traceFile{Workload: def.name, Seed: cfg.seed, Layers: layers(tr.spans), Spans: tr.spans}
			if err := writeJSON(cfg.out, name, tf); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}
	name := fmt.Sprintf("result-seed%d-trace%d.json", cfg.seed, *trace)
	if *workload != "" {
		name = fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, cfg.seed, *trace)
	}
	if err := writeJSON(cfg.out, name, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// printWorkload prints every metric by name with its unit, what the gate
// found, and last the line the driver reads.
func printWorkload(res *workloadResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("# %s (%s pass, %.1f s wall): attempted %d (acquires %d, steps %d, slots %d), failed %d\n",
		res.Workload, pass, res.WallS, res.Attempted, res.Acquires[0], res.Steps[0], res.Slots[0], res.Failed)
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, m := range res.Metrics {
		note := fmt.Sprintf("n=%d", m.Samples)
		if m.Spread != 0 {
			note += fmt.Sprintf(" spread=%.3f", m.Spread)
		}
		fmt.Printf("%-32s %16.6g %-6s %s\n", m.Name, m.Value, m.Unit, note)
		if res.Traced || isEndToEnd(m.Name) {
			line.Metrics[m.Name] = driverValue{m.Value, m.Unit}
		}
	}
	for _, f := range res.Flags {
		fmt.Println("FLAG:", f)
	}
	for _, p := range res.Problems {
		fmt.Println("INCORRECT:", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// gitCommit names the commit when the working directory is a git checkout
// (the driver's is not).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
