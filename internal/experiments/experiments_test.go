package experiments

import (
	"strings"
	"testing"

	"visclean/internal/pipeline"
)

func testEnv(t testing.TB) *Env {
	t.Helper()
	return NewEnv(0.01, 11)
}

func TestWorkloadHas18ValidTasks(t *testing.T) {
	env := testEnv(t)
	tasks := Workload()
	if len(tasks) != 18 {
		t.Fatalf("workload has %d tasks, want 18", len(tasks))
	}
	seen := map[string]bool{}
	perDataset := map[string]int{}
	for _, task := range tasks {
		if seen[task.ID] {
			t.Fatalf("duplicate task id %s", task.ID)
		}
		seen[task.ID] = true
		perDataset[task.Dataset]++
		q, err := parseTaskQuery(env, task)
		if err != nil {
			t.Fatalf("task %s: %v", task.ID, err)
		}
		d := env.Dataset(task.Dataset)
		if _, err := q.Execute(d.Dirty); err != nil {
			t.Fatalf("task %s execute dirty: %v", task.ID, err)
		}
		if _, err := q.Execute(d.Truth.Clean); err != nil {
			t.Fatalf("task %s execute clean: %v", task.ID, err)
		}
	}
	if perDataset["D1"] != 8 || perDataset["D2"] != 5 || perDataset["D3"] != 5 {
		t.Fatalf("task split per dataset = %v, want 8/5/5", perDataset)
	}
}

func TestTaskByID(t *testing.T) {
	if _, err := TaskByID("Q1"); err != nil {
		t.Fatal(err)
	}
	if _, err := TaskByID("Q99"); err == nil {
		t.Fatal("expected error for unknown task")
	}
}

func TestEnvCachesDatasets(t *testing.T) {
	env := testEnv(t)
	a := env.Dataset("D1")
	b := env.Dataset("D1")
	if a != b {
		t.Fatal("dataset not cached")
	}
}

func TestRunTaskSmoke(t *testing.T) {
	env := testEnv(t)
	curve, err := RunTask(env, "Q1", RunOptions{Budget: 3}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Dists) == 0 {
		t.Fatal("no iterations")
	}
	if curve.Snapshots[0] == nil {
		t.Fatal("initial snapshot missing")
	}
	if len(curve.UserSeconds) != len(curve.Dists) {
		t.Fatal("user time series length mismatch")
	}
	for i := 1; i < len(curve.UserSeconds); i++ {
		if curve.UserSeconds[i] < curve.UserSeconds[i-1] {
			t.Fatal("cumulative user time decreased")
		}
	}
	// Three iterations can transiently overshoot (the model's first
	// auto-merge activation); catastrophe is the only failure here.
	if curve.FinalDist() > curve.InitialDist*2 {
		t.Fatalf("short run exploded: %v -> %v", curve.InitialDist, curve.FinalDist())
	}
}

func TestRunTaskConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget run is slow")
	}
	env := testEnv(t)
	curve, err := RunTask(env, "Q1", RunOptions{Budget: 15})
	if err != nil {
		t.Fatal(err)
	}
	if curve.FinalDist() > curve.InitialDist*0.8 {
		t.Fatalf("perfect-oracle 15-iteration run did not clean enough: %v -> %v",
			curve.InitialDist, curve.FinalDist())
	}
}

func TestExp1ProgressSmoke(t *testing.T) {
	env := testEnv(t)
	report, curve, err := Exp1Progress(env, "Q1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "ground truth") {
		t.Fatal("report missing ground-truth chart")
	}
	if len(curve.Snapshots) < 2 {
		t.Fatalf("snapshots = %d", len(curve.Snapshots))
	}
}

func TestExp2UserTimeSavings(t *testing.T) {
	env := testEnv(t)
	report, out, err := Exp2UserTime(env, []string{"Q1"})
	if err != nil {
		t.Fatal(err)
	}
	pair := out["Q1"]
	comp, single := pair[0], pair[1]
	if len(comp.UserSeconds) == 0 || len(single.UserSeconds) == 0 {
		t.Fatal("missing user time series")
	}
	// Composite must be cheaper in total when both ran the same number
	// of iterations (the paper's ~40% saving).
	n := len(comp.UserSeconds)
	if m := len(single.UserSeconds); m < n {
		n = m
	}
	if comp.UserSeconds[n-1] >= single.UserSeconds[n-1] {
		t.Fatalf("composite %0.fs not cheaper than single %0.fs",
			comp.UserSeconds[n-1], single.UserSeconds[n-1])
	}
	if !strings.Contains(report, "Fig 15") || !strings.Contains(report, "Fig 16") {
		t.Fatal("report missing figures")
	}
}

func TestExp4VaryKShape(t *testing.T) {
	report, pts := Exp4VaryK(2000, []int{5, 10}, 50000, 1)
	if !strings.Contains(report, "Fig 17(a)") {
		t.Fatal("report header missing")
	}
	byAlgoK := map[string]map[int]Exp4Point{}
	for _, p := range pts {
		if byAlgoK[p.Algo] == nil {
			byAlgoK[p.Algo] = map[int]Exp4Point{}
		}
		byAlgoK[p.Algo][p.K] = p
	}
	// GSS must be far faster than B&B at k=10.
	gss, bb := byAlgoK["GSS"][10], byAlgoK["B&B"][10]
	if gss.Elapsed >= bb.Elapsed {
		t.Fatalf("GSS (%v) not faster than B&B (%v) at k=10", gss.Elapsed, bb.Elapsed)
	}
}

func TestExp4VaryEdges(t *testing.T) {
	_, pts := Exp4VaryEdges(5, []int{1000, 2000}, 20000, 1)
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 2 sizes x 5 algorithms", len(pts))
	}
}

func TestExp4ComponentTime(t *testing.T) {
	env := testEnv(t)
	report, out, err := Exp4ComponentTime(env, []string{"Q2"})
	if err != nil {
		t.Fatal(err)
	}
	tm, ok := out["Q2"]
	if !ok || tm == (pipeline.Timings{}) {
		t.Fatalf("timings missing: %+v", out)
	}
	if !strings.Contains(report, "Fig 18") {
		t.Fatal("report header missing")
	}
}

func TestTableIVAndV(t *testing.T) {
	env := testEnv(t)
	iv := TableIV(env)
	if !strings.Contains(iv, "D1") || !strings.Contains(iv, "paper") {
		t.Fatalf("Table IV malformed:\n%s", iv)
	}
	v, err := TableV(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v, "Q18") {
		t.Fatalf("Table V missing tasks:\n%s", v)
	}
}

func TestExp3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy-input grid is slow")
	}
	env := testEnv(t)
	report, results, err := Exp3NoisyInput(env, []string{"Q2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Questions) != len(Exp3Settings) {
		t.Fatalf("results malformed: %+v", results)
	}
	if !strings.Contains(report, "Table VI") {
		t.Fatal("report header missing")
	}
}

func TestExp2EffectivenessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("six selectors is slow")
	}
	env := testEnv(t)
	_, out, err := Exp2Effectiveness(env, []string{"Q2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["Q2"]) != len(Exp2Selectors) {
		t.Fatalf("curves = %d, want %d", len(out["Q2"]), len(Exp2Selectors))
	}
	_ = pipeline.SelectGSS // keep import intent explicit
}

func TestExpMultiViewSmoke(t *testing.T) {
	env := testEnv(t)
	report, res, err := ExpMultiView(env, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Views) < 2 || len(res.Views) > 4 {
		t.Fatalf("view count %d outside the 2-4 scenario range", len(res.Views))
	}
	if len(res.MultiDists) == 0 {
		t.Fatal("multi-view arm ran no iterations")
	}
	for i, dists := range res.MultiDists {
		if len(dists) != len(res.Views) {
			t.Fatalf("iteration %d recorded %d view dists, want %d", i+1, len(dists), len(res.Views))
		}
	}
	if len(res.SeqDists) != len(res.Views) || len(res.SeqConverged) != len(res.Views) {
		t.Fatalf("sequential arm malformed: %d dists / %d converged", len(res.SeqDists), len(res.SeqConverged))
	}
	for v, init := range res.InitialDist {
		if init <= 0 {
			t.Fatalf("view %d initial dist %v not positive", v, init)
		}
	}
	if !strings.Contains(report, "Multi-view cleaning") {
		t.Fatal("report header missing")
	}
	if !strings.Contains(report, "V2") {
		t.Fatalf("report missing per-view rows:\n%s", report)
	}
}

func TestExpMultiViewConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget multi-view comparison is slow")
	}
	env := testEnv(t)
	report, res, err := ExpMultiView(env, 15)
	if err != nil {
		t.Fatal(err)
	}
	mt, ok := res.MultiTotal()
	if !ok {
		t.Fatalf("multi-view arm did not converge every view:\n%s", report)
	}
	if mt <= 0 {
		t.Fatalf("multi-view converged with %d answers", mt)
	}
	// The sequential arm pays per view; if it also converged, the shared
	// session must not cost more answers than the sum of dedicated ones.
	if st, ok := res.SeqTotal(); ok && mt > st {
		t.Fatalf("multi-view needed %d answers vs sequential %d — cross-view aggregation made it worse:\n%s",
			mt, st, report)
	}
}
