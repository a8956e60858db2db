// Command copmecs-bench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks every output, and prints one JSON
// result line: the end-to-end metrics of an untraced pass (--trace 0), or
// the per-layer ledger of a separate traced pass (--trace 1). The metric
// names and units are declared in BENCHMARK.json at the repository root;
// the run fails if what it measured does not match that declaration.
//
// Run it from the repository root through benchmark/run.sh, which builds
// it from source; README.md in this directory describes the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// problem records a failed output check, keeping the first few messages.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == 20 {
		o.problems = append(o.problems, "further problems suppressed")
	}
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is this run's private scratch directory inside the checkout.
	dir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"fig9-cold":      runFig9Cold,
	"multiuser-warm": runMultiuserWarm,
	"serve-fresh":    runServeFresh,
	"serve-mixed":    runServeMixed,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copmecs-bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result line was printed but whose output
// checks failed.
var errIncorrect = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("copmecs-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	out, err := runner(rc)
	if err != nil {
		return err
	}
	want := decl.EndToEnd
	if rc.trace {
		want = decl.PerLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure declared metric %s", rc.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if extra := undeclared(out.metrics, want); len(extra) > 0 {
		return fmt.Errorf("workload %s measured undeclared metrics %v", rc.workload, extra)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", rc.workload)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declaration is the part of BENCHMARK.json the program checks itself
// against.
type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &d, nil
}

// undeclared lists measured metric names the declaration does not name.
func undeclared(got map[string]float64, want []declaredMetric) []string {
	known := make(map[string]bool, len(want))
	for _, m := range want {
		known[m.Name] = true
	}
	var extra []string
	for name := range got {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return extra
}
