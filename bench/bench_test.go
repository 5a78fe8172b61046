package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func declaration(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaration checks BENCHMARK.json against the benchmark format's
// limits and against the workloads this program runs.
func TestDeclaration(t *testing.T) {
	b := declaration(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d run", n, len(workloads))
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q invalid or repeated", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error(`no end-to-end "setup_s" in s, lower is better`)
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestWorkloadsSmoke runs every workload at its short size, untraced and
// traced, and checks that each emits exactly the declared metrics with
// their declared units, reports dist_final and passes its output checks.
// With -short each run sets up once and measures for half a second.
func TestWorkloadsSmoke(t *testing.T) {
	b := declaration(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	setups, window := setupRepeats, time.Second
	if testing.Short() {
		setups, window = 1, time.Second/2
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			cfg := runConfig{seed: 7, window: window, traced: traced, sizes: w.short, setups: setups, workdir: t.TempDir()}
			if traced {
				cfg.window *= 2 // two halves: untraced, then traced
			}
			res, _, err := execute(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: checks %+v", w.name, traced, res.Checks)
			}
			if res.Attempted < 1 || res.Failed > 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			if res.DistFinal == nil {
				t.Errorf("%s traced=%v: no dist_final", w.name, traced)
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, n)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s in %q, declared %q", w.name, traced, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, n, m.Value)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", w.name, traced, n)
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":`) {
				t.Errorf("%s: last line is not the JSON summary: %s", w.name, last)
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestCompare feeds compare, for every end-to-end metric of
// BENCHMARK.json, injected regressions just past and well past the
// metric's bound, a 5% wiggle and a gain past the bound. The regressions
// must fail the gate, the wiggle must read "same" and the gain "better".
func TestCompare(t *testing.T) {
	b := declaration(t)
	for _, d := range b.EndToEnd {
		for _, c := range []struct {
			worse float64
			want  string
		}{{d.Bound + 0.02, "worse"}, {d.Bound + 0.1, "worse"}, {0.05, "same"}, {-d.Bound - 0.02, "better"}} {
			var out bytes.Buffer
			bad, err := compare(b, runs(b, d.Name, d.Better, 0), runs(b, d.Name, d.Better, c.worse), &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), " "+c.want+"\n") || (bad > 0) != (c.want == "worse") {
				t.Errorf("%s worse by %.0f%% (bound %.0f%%): want %s, %d failing rows\n%s",
					d.Name, 100*c.worse, 100*d.Bound, c.want, bad, out.String())
			}
		}
	}
}

// TestCompareGates checks the rows that fail the gate without a timing
// getting worse, and that runs of different shapes are refused.
func TestCompareGates(t *testing.T) {
	b := declaration(t)
	m := b.EndToEnd[0]
	for _, c := range []struct {
		name string
		edit func(cand []*result) []*result
		want string // a failing row's verdict, or "" for an error
	}{
		{"more failures", func(rs []*result) []*result { rs[0].Failed = rs[0].Attempted / 2; return rs }, "worse"},
		{"metric gone", func(rs []*result) []*result {
			for _, r := range rs {
				delete(r.Metrics, m.Name)
			}
			return rs
		}, "missing"},
		{"workload gone", func(rs []*result) []*result { return nil }, "missing"},
		{"dist_final differs", func(rs []*result) []*result { d := *rs[0].DistFinal + 1e-12; rs[0].DistFinal = &d; return rs }, "differs"},
		{"dist_final gone", func(rs []*result) []*result { rs[2].DistFinal = nil; return rs }, "missing"},
		{"other window", func(rs []*result) []*result { rs[0].Env.Seconds++; return rs }, ""},
		{"other sizes", func(rs []*result) []*result { rs[0].Env.Sizes.K++; return rs }, ""},
	} {
		var out bytes.Buffer
		bad, err := compare(b, runs(b, m.Name, m.Better, 0), c.edit(runs(b, m.Name, m.Better, 0)), &out)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s: compared without error\n%s", c.name, out.String())
		case c.want != "" && (err != nil || bad == 0 || !strings.Contains(out.String(), " "+c.want+"\n")):
			t.Errorf("%s: want a failing %s row, got %d failing rows, error %v\n%s", c.name, c.want, bad, err, out.String())
		}
	}
}

// runs fakes five results of the first workload on seeds 0 to 4, with
// one metric made worse by the given share.
func runs(b *benchmarkFile, name, better string, worse float64) []*result {
	var rs []*result
	for i := 0; i < 5; i++ {
		v := 100 * (1 + 0.002*float64(i))
		if better == "lower" {
			v *= 1 + worse
		} else {
			v *= 1 - worse
		}
		dist := 0.5 + float64(i)
		rs = append(rs, &result{
			Workload: b.Workloads[0].Name, Correct: true, Attempted: 100,
			Env:       env{Seed: int64(i), Seconds: 20},
			Metrics:   map[string]metric{name: {Value: v}},
			DistFinal: &dist,
		})
	}
	return rs
}
