package experiments

import (
	"fmt"
	"strings"
	"time"

	"visclean/internal/cqgselect"
	"visclean/internal/datagen"
	"visclean/internal/erg"
	"visclean/internal/pipeline"
)

// SelectionAlgo names one algorithm of the Fig 17 comparison.
type SelectionAlgo struct {
	Name string
	Run  func(g *erg.Graph, k int) cqgselect.Result
}

// Exp4Algorithms is the Fig 17 algorithm set. B&B variants carry an
// expansion budget so a single data point cannot run unboundedly; the
// paper itself reports B&B "much inefficient when k > 10", and the
// budget preserves exactly that trend while keeping the harness finite.
func Exp4Algorithms(maxExpansions int) []SelectionAlgo {
	return []SelectionAlgo{
		{Name: "GSS", Run: func(g *erg.Graph, k int) cqgselect.Result {
			return cqgselect.GSS(g, k)
		}},
		{Name: "GSS+", Run: func(g *erg.Graph, k int) cqgselect.Result {
			return cqgselect.GSSPlus(g, k)
		}},
		{Name: "B&B", Run: func(g *erg.Graph, k int) cqgselect.Result {
			return cqgselect.BranchAndBound(g, k, cqgselect.BBOptions{MaxExpansions: maxExpansions})
		}},
		{Name: "5-B&B", Run: func(g *erg.Graph, k int) cqgselect.Result {
			return cqgselect.AlphaBB(g, k, 5, maxExpansions)
		}},
		{Name: "10-B&B", Run: func(g *erg.Graph, k int) cqgselect.Result {
			return cqgselect.AlphaBB(g, k, 10, maxExpansions)
		}},
	}
}

// Exp4Point is one (algorithm, configuration) efficiency measurement.
type Exp4Point struct {
	Algo      string
	K         int
	Edges     int
	Elapsed   time.Duration
	Benefit   float64
	Exhausted bool
}

// Exp4VaryK reproduces Fig 17(a): fix the ERG at `edges` edges and vary
// the CQG size k.
func Exp4VaryK(edges int, ks []int, maxExpansions int, seed int64) (string, []Exp4Point) {
	g := datagen.SyntheticERG(edges, seed)
	var pts []Exp4Point
	for _, k := range ks {
		for _, algo := range Exp4Algorithms(maxExpansions) {
			start := time.Now()
			res := algo.Run(g, k)
			pts = append(pts, Exp4Point{
				Algo: algo.Name, K: k, Edges: edges,
				Elapsed: time.Since(start), Benefit: res.Benefit, Exhausted: res.Exhausted,
			})
		}
	}
	return formatExp4(fmt.Sprintf("Fig 17(a): selection time, #-edges=%d, varying k", edges), pts, "k", func(p Exp4Point) int { return p.K }), pts
}

// Exp4VaryEdges reproduces Fig 17(b): fix k and vary the ERG size.
func Exp4VaryEdges(k int, edgeCounts []int, maxExpansions int, seed int64) (string, []Exp4Point) {
	var pts []Exp4Point
	for _, edges := range edgeCounts {
		g := datagen.SyntheticERG(edges, seed)
		for _, algo := range Exp4Algorithms(maxExpansions) {
			start := time.Now()
			res := algo.Run(g, k)
			pts = append(pts, Exp4Point{
				Algo: algo.Name, K: k, Edges: edges,
				Elapsed: time.Since(start), Benefit: res.Benefit, Exhausted: res.Exhausted,
			})
		}
	}
	return formatExp4(fmt.Sprintf("Fig 17(b): selection time, k=%d, varying #-edges", k), pts, "edges", func(p Exp4Point) int { return p.Edges }), pts
}

func formatExp4(title string, pts []Exp4Point, xName string, x func(Exp4Point) int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-8s %8s %12s %10s %6s\n", "algo", xName, "time", "benefit", "cap?")
	for _, p := range pts {
		cap := ""
		if p.Exhausted {
			cap = "yes"
		}
		fmt.Fprintf(&b, "%-8s %8d %12s %10.2f %6s\n", p.Algo, x(p), p.Elapsed.Round(time.Microsecond), p.Benefit, cap)
	}
	return b.String()
}

// Exp4ComponentTime reproduces Fig 18: the average machine time per
// framework component per iteration for each given task.
func Exp4ComponentTime(env *Env, taskIDs []string) (string, map[string]pipeline.Timings, error) {
	out := map[string]pipeline.Timings{}
	var b strings.Builder
	b.WriteString("Fig 18: average machine time per component per iteration\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s %12s %12s\n",
		"task", "detect", "build-erg", "benefit", "select", "apply", "train")
	for _, id := range taskIDs {
		curve, err := RunTask(env, id, RunOptions{})
		if err != nil {
			return "", nil, err
		}
		if len(curve.Timings) == 0 {
			continue
		}
		var avg pipeline.Timings
		for _, tm := range curve.Timings {
			avg.Detect += tm.Detect
			avg.BuildERG += tm.BuildERG
			avg.Benefit += tm.Benefit
			avg.Select += tm.Select
			avg.Apply += tm.Apply
			avg.Train += tm.Train
		}
		n := time.Duration(len(curve.Timings))
		avg.Detect /= n
		avg.BuildERG /= n
		avg.Benefit /= n
		avg.Select /= n
		avg.Apply /= n
		avg.Train /= n
		out[id] = avg
		fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s %12s %12s\n", id,
			avg.Detect.Round(time.Microsecond),
			avg.BuildERG.Round(time.Microsecond),
			avg.Benefit.Round(time.Microsecond),
			avg.Select.Round(time.Microsecond),
			avg.Apply.Round(time.Microsecond),
			avg.Train.Round(time.Microsecond))
	}
	return b.String(), out, nil
}
