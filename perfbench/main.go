// Command perfbench is the repository benchmark. It drives the planning
// service (tmplar) over a real loopback listener in closed loop, or the
// Table 6 experiments pipeline, for a fixed time; checks every output; and
// prints one JSON result line. With -trace 1 it also times the public
// functions of each module from this package's own code and prints those
// per-layer numbers instead of the end-to-end ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// serverSeed trains the service's default model. It is configuration of
// the system under test, not a workload input, so it does not follow -seed.
const serverSeed = 7

// setupRepeats is how many times each workload builds its system under
// test; setup_s is the median.
const setupRepeats = 7

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values holds one run's metrics by name; BENCHMARK.json gives their units.
type values map[string]float64

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "serve-hot, serve-mixed or table6")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	flag.IntVar(&secs, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build", "directory for temporary files")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || secs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, secs, trace, runtime.GOMAXPROCS(0))
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.trace {
		printResult(out, spec.PerLayer, out.perLayer)
	} else {
		printResult(out, spec.EndToEnd, out.endToEnd)
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// ok is false when the determinism check failed; operations that failed
	// or broke a check are counted in failed.
	ok                 bool
	endToEnd, perLayer values
}

var workloads = map[string]func(options) (outcome, error){
	"serve-hot":   runServeHot,
	"serve-mixed": runServeMixed,
	"table6":      runTable6,
}

// benchmarkSpec is the part of BENCHMARK.json, at the repository root,
// that names the reported metrics and their units.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// printResult prints every metric of the selected set, readable lines
// first and the JSON result last. A metric the run did not measure, because
// the workload does not exercise that layer, reads 0.
func printResult(out outcome, set []specMetric, vals values) {
	res := result{
		Correct:   out.ok && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		res.Metrics[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, vals[m.Name], m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
