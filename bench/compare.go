package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the workloads and every metric with
// its unit, direction and, for end-to-end metrics, regression bound.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json, refusing keys it does not know.
func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadResults reads every result in a result file, or in every .json
// file of a directory.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rs {
			if r == nil || r.Workload == "" || r.Metrics == nil {
				return nil, fmt.Errorf("%s: not a result file", f)
			}
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads read as the benchmark's acceptance
// rule computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares one end-to-end metric across two sets of runs. A
// change within the bound is "same"; beyond it, "better" or "worse" —
// unless either side's own spread exceeds the bound, which makes it
// "unresolved" except when every candidate run beats (or loses to)
// every base run.
func verdict(base, cand []float64, better string, bound float64) string {
	q1a, ma, q3a := quartiles(base)
	q1b, mb, q3b := quartiles(cand)
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	change := sign * (mb - ma) / math.Abs(ma)
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	if spread > bound {
		switch {
		case allBeyond(cand, base, sign):
			return "worse"
		case allBeyond(base, cand, sign):
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// allBeyond reports whether every value of a is worse than every value
// of b, where sign +1 means larger is worse.
func allBeyond(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

// failedSlack is how much the candidate's share of failed operations may
// exceed the base's before the gate fails. Failures are counted, not
// timed, so they get an absolute allowance instead of a relative bound.
const failedSlack = 0.01

// cmdCompare applies BENCHMARK.json's bounds to two sets of result
// files, one row per (workload, metric), and fails when a metric got
// worse or is missing from one side, a run failed its output checks,
// more operations failed, or dist_final — a function of the seed —
// differs for a seed or is missing.
func cmdCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [--benchmark BENCHMARK.json] BASE CANDIDATE (result files or directories)")
	}
	b, err := loadBenchmark(*spec)
	if err != nil {
		return err
	}
	base, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	cand, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	bad, err := compare(b, base, cand, w)
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse, missing, differing or incorrect", bad)
	}
	return nil
}

// comparable refuses to compare runs of one workload made with different
// windows, sizes or tracing: their numbers measure different things.
func comparable(rs []*result) error {
	first := map[string]env{}
	for _, r := range rs {
		e, seen := first[r.Workload]
		if !seen {
			first[r.Workload] = r.Env
			continue
		}
		if e.Seconds != r.Env.Seconds || e.Sizes != r.Env.Sizes || e.Traced != r.Env.Traced {
			return fmt.Errorf("%s: runs differ in window, sizes or tracing (%gs %+v traced=%v vs %gs %+v traced=%v)",
				r.Workload, e.Seconds, e.Sizes, e.Traced, r.Env.Seconds, r.Env.Sizes, r.Env.Traced)
		}
	}
	return nil
}

// compare prints the comparison table and returns how many rows fail
// the gate.
func compare(b *benchmarkFile, base, cand []*result, w io.Writer) (int, error) {
	if err := comparable(append(append([]*result(nil), base...), cand...)); err != nil {
		return 0, err
	}
	bad := 0
	counts := map[string]int{}
	tally := func(v string) {
		counts[v]++
		if v == "worse" || v == "missing" || v == "differs" {
			bad++
		}
	}
	fmt.Fprintf(w, "%-13s %-28s %-34s %-34s %8s  %s\n", "workload", "metric", "base median [q1, q3] (n)", "candidate median [q1, q3] (n)", "change", "verdict")
	for _, wl := range b.Workloads {
		ra, rb := byWorkload(base, wl.Name), byWorkload(cand, wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-13s %-28s %-34d %-34d %8s  missing\n", wl.Name, "runs", len(ra), len(rb), "")
			tally("missing")
			continue
		}
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-13s %-28s seed %d failed its output checks\n", r.Workload, "correct", r.Env.Seed)
				bad++
			}
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		v := "same"
		if fb > fa+failedSlack {
			v = "worse"
		}
		fmt.Fprintf(w, "%-13s %-28s %-34.4g %-34.4g %+7.4f   %s\n", wl.Name, "failed_frac", fa, fb, fb-fa, v)
		tally(v)
		v = sameBySeed(ra, rb)
		fmt.Fprintf(w, "%-13s %-28s %-34s %-34s %8s  %s\n", wl.Name, "dist_final", distList(ra), distList(rb), "", v)
		tally(v)

		for _, m := range b.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := "missing"
			if len(va) > 0 && len(vb) > 0 {
				v = verdict(va, vb, m.Better, m.Bound)
			}
			tally(v)
			row(w, wl.Name, m.Name, va, vb, v)
		}
		for _, m := range b.PerLayer {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v := "missing"
			if len(va) > 0 && len(vb) > 0 {
				v = "info"
			}
			tally(v)
			row(w, wl.Name, m.Name, va, vb, v)
		}
	}
	var parts []string
	for _, v := range []string{"better", "same", "worse", "unresolved", "missing", "differs", "info"} {
		if counts[v] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
		}
	}
	fmt.Fprintf(w, "summary: %s\n", strings.Join(parts, ", "))
	return bad, nil
}

func byWorkload(rs []*result, workload string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// failedFrac is the share of attempted operations that failed, pooled
// over runs.
func failedFrac(rs []*result) float64 {
	var attempted, failed int64
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

func row(w io.Writer, workload, name string, va, vb []float64, v string) {
	if len(va) == 0 || len(vb) == 0 {
		fmt.Fprintf(w, "%-13s %-28s %-34d %-34d %8s  %s\n", workload, name, len(va), len(vb), "", v)
		return
	}
	q1a, ma, q3a := quartiles(va)
	q1b, mb, q3b := quartiles(vb)
	fmt.Fprintf(w, "%-13s %-28s %-34s %-34s %+7.1f%%  %s\n", workload, name,
		fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", ma, q1a, q3a, len(va)),
		fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", mb, q1b, q3b, len(vb)),
		100*ratio(mb-ma, math.Abs(ma)), v)
}

// values collects one metric across runs.
func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// sameBySeed requires dist_final in every run, reading identically to the
// bit in every run of one seed on either side.
func sameBySeed(base, cand []*result) string {
	bySeed := map[int64]uint64{}
	for _, r := range append(append([]*result(nil), base...), cand...) {
		if r.DistFinal == nil {
			return "missing"
		}
		bits := math.Float64bits(*r.DistFinal)
		if want, seen := bySeed[r.Env.Seed]; seen && want != bits {
			return "differs"
		}
		bySeed[r.Env.Seed] = bits
	}
	return "same"
}

// distList shows dist_final by seed, for the comparison table.
func distList(rs []*result) string {
	seen := map[int64]bool{}
	var parts []string
	for _, r := range rs {
		if r.DistFinal != nil && !seen[r.Env.Seed] {
			seen[r.Env.Seed] = true
			parts = append(parts, fmt.Sprintf("%d:%.6g", r.Env.Seed, *r.DistFinal))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
