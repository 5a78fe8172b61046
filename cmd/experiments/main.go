// Command experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each subcommand prints the measured rows/series;
// EXPERIMENTS.md records these next to the paper's numbers.
//
// Usage:
//
//	experiments [-scale 0.05] [-seed 1] [-workers N] <what>
//
// where <what> is one of:
//
//	tables    Table IV (dataset stats) and Table V (workload)
//	fig10     Exp-1 progression for Q1 (chart snapshots + EMD)
//	fig11     Exp-1 progression for Q7
//	fig12     Exp-1 progression for Q8
//	fig13     Exp-1 EMD curves for representative tasks
//	fig14     Exp-2 selector effectiveness
//	fig15     Exp-2/Figs 15-16 user time (composite vs single)
//	table6    Exp-3 noisy/incomplete input
//	fig17     Exp-4 CQG selection efficiency
//	fig18     Exp-4 per-component machine time
//	all       everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"visclean/internal/experiments"
	"visclean/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 0.05, "dataset scale factor (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "seed")
	repeats := flag.Int("repeats", 3, "repeats for Table VI averages")
	edges17a := flag.Int("fig17-edges", 20000, "ERG edges for Fig 17(a)")
	workers := flag.Int("workers", 0, "benefit/training fan-out per session (0 = GOMAXPROCS, 1 = sequential; results identical at any value)")
	metricsOut := flag.String("metrics-out", "", "enable observability and write accumulated metrics as JSON to this file on exit")
	flag.Parse()

	what := flag.Arg(0)
	if what == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Env.Dataset panics on a generator error, so a scale the generator
	// refuses is caught here.
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "experiments: -scale %g is not > 0\n", *scale)
		os.Exit(2)
	}
	if *metricsOut != "" {
		obs.SetEnabled(true)
	}
	env := experiments.NewEnv(*scale, *seed)
	env.Workers = *workers
	err := dispatch(env, what, *repeats, *edges17a)
	if *metricsOut != "" {
		if werr := writeMetrics(*metricsOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the obs registry as flat JSON, the input for
// EXPERIMENTS.md's per-phase cost table.
func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Representative tasks per dataset, used where the paper plots one panel
// per dataset.
var representative = []string{"Q1", "Q10", "Q15"}

func dispatch(env *experiments.Env, what string, repeats, edges17a int) error {
	all := what == "all"
	ran := false

	if all || what == "tables" {
		ran = true
		fmt.Println(experiments.TableIV(env))
		tv, err := experiments.TableV(env)
		if err != nil {
			return err
		}
		fmt.Println(tv)
	}
	for _, fig := range []struct {
		name, task string
	}{{"fig10", "Q1"}, {"fig11", "Q7"}, {"fig12", "Q8"}} {
		if all || what == fig.name {
			ran = true
			report, _, err := experiments.Exp1Progress(env, fig.task)
			if err != nil {
				return err
			}
			fmt.Println(report)
		}
	}
	if all || what == "fig13" {
		ran = true
		report, _, err := experiments.Exp1Curves(env, []string{"Q1", "Q2", "Q10", "Q13", "Q15", "Q18"})
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	if all || what == "fig14" {
		ran = true
		report, _, err := experiments.Exp2Effectiveness(env, representative)
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	if all || what == "fig15" || what == "fig16" {
		ran = true
		report, _, err := experiments.Exp2UserTime(env, representative)
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	if all || what == "table6" {
		ran = true
		report, _, err := experiments.Exp3NoisyInput(env, []string{"Q1", "Q2", "Q3"}, repeats)
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	if all || what == "fig17" {
		ran = true
		reportA, _ := experiments.Exp4VaryK(edges17a, []int{5, 10, 15, 20, 25, 30}, 500000, env.Seed)
		fmt.Println(reportA)
		reportB, _ := experiments.Exp4VaryEdges(5, []int{5000, 10000, 20000, 30000, 40000}, 500000, env.Seed)
		fmt.Println(reportB)
	}
	if all || what == "fig18" {
		ran = true
		report, _, err := experiments.Exp4ComponentTime(env, representative)
		if err != nil {
			return err
		}
		fmt.Println(report)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}
