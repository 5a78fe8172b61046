// Command bench is VisClean's end-to-end benchmark. Four workloads time
// what an analyst waits for (the chart after opening a session, the
// first question of an iteration, the next question after an answer,
// the refreshed chart after the last one) and what an operator serves
// (the same waits through web, service and router, closed and open
// loop). A traced run attributes each wait to the layer that spent it.
// BENCHMARK.json at the repository root declares the workloads and every
// metric with its unit, direction and regression bound; README.md in
// this directory explains them.
//
//	bash bench/run.sh run --workload analyst-d1 --seed 1 --trace 0
//	bash bench/run.sh run --seed 1 --out base/r1.json          # all workloads
//	bash bench/run.sh run --workload served-open --trace t.json
//	bash bench/run.sh compare base/ head/
//
// The measured window is run_seconds from BENCHMARK.json unless
// --seconds names another. The last line of a run's standard output is
// one JSON object with the keys correct, attempted, failed and metrics;
// the lines before it list every metric with its unit and sample count.
// The run exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// pollEvery is how often a served client re-reads session state while it
// waits for a question or a refreshed chart. Every served wait is
// quantized to it, so result files record it.
const pollEvery = 5 * time.Millisecond

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench run [flags] | bench compare BASE CANDIDATE")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errChecks reports that a run finished but an output check failed.
var errChecks = errors.New("output checks failed")

// workdir holds the served workloads' snapshot files; run.sh keeps its
// build there too.
const workdir = ".bench_build"

func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 0, "measured window per workload; 0 takes run_seconds from BENCHMARK.json")
	trace := fs.String("trace", "0", "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics; a file name runs traced and also writes the spans there")
	out := fs.String("out", "", "write the result files' JSON array here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traced, spans := *trace != "0", ""
	if traced && *trace != "1" {
		spans = *trace
	}
	if *seconds == 0 {
		b, err := loadBenchmark("BENCHMARK.json")
		if err != nil {
			return fmt.Errorf("--seconds not given: %w", err)
		}
		*seconds = b.RunSeconds
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var todo []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}

	var results []*result
	var spanFile []spanJSON
	ok := true
	for _, w := range todo {
		cfg := runConfig{
			seed:    *seed,
			window:  time.Duration(*seconds) * time.Second,
			traced:  traced,
			sizes:   w.full,
			setups:  setupRepeats,
			workdir: workdir,
		}
		res, sp, err := execute(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(stdout)
		results = append(results, res)
		spanFile = append(spanFile, sp...)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			return err
		}
	}
	if spans != "" {
		if err := writeJSON(spans, spanFile); err != nil {
			return err
		}
	}
	if !ok {
		return errChecks
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// env stamps every result with what produced it: a parallel number
// means nothing without its core count.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	PollMs     float64 `json:"poll_ms"`
	Traced     bool    `json:"traced"`
	Sizes      sizes   `json:"sizes"`
}

func stamp(cfg runConfig) env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
		Seed:       cfg.seed,
		Seconds:    cfg.window.Seconds(),
		PollMs:     float64(pollEvery) / float64(time.Millisecond),
		Traced:     cfg.traced,
		Sizes:      cfg.sizes,
	}
}

// gitHead names the commit under test, or "unknown" outside a git
// checkout.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metric is one reported number. N is the sample count behind it (for a
// percentile, the samples it was taken over).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// check is one output check and whether it held.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run: what a result file holds.
type result struct {
	Workload  string             `json:"workload"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []check            `json:"checks"`
	Metrics   map[string]metric  `json:"metrics"`
	SelfMs    map[string]float64 `json:"layer_self_ms,omitempty"`
	// DistFinal is the first session's distance to the ground-truth chart
	// after its last iteration. It is a function of the seed, so compare
	// requires it to repeat to the bit.
	DistFinal *float64 `json:"dist_final"`
}

// print writes the human-readable listing and, last, the one-line JSON
// summary.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d cores, GOMAXPROCS %d, %s, commit %s, traced %v, poll %gms\n",
		r.Workload, r.Env.Seed, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, short(r.Env.Commit), r.Env.Traced, r.Env.PollMs)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	if r.DistFinal != nil {
		fmt.Fprintf(w, "  %-32s %14.6g EMD    (session 0, after its last iteration)\n", "dist_final", *r.DistFinal)
	}
	if len(r.SelfMs) > 0 {
		layers := make([]string, 0, len(r.SelfMs))
		for l := range r.SelfMs {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return r.SelfMs[layers[i]] > r.SelfMs[layers[j]] })
		fmt.Fprintln(w, "  layer self time:")
		for _, l := range layers {
			fmt.Fprintf(w, "    %-12s %12.1f ms\n", l, r.SelfMs[l])
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-24s %s %s\n", c.Name, verdict, c.Detail)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for n, m := range r.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line) // plain structs of numbers and strings
	fmt.Fprintln(w, string(data))
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
