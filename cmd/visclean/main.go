// Command visclean runs an interactive cleaning session: it loads a
// dirty CSV (or generates one of the paper's synthetic datasets), runs a
// VQL visualization query, and iteratively asks composite cleaning
// questions, refreshing the chart after each iteration.
//
// With -interactive the questions are put to you on the terminal (the
// §VI GUI, text edition); otherwise a simulated user answers from the
// generator's ground truth (only available with -dataset).
//
// With -state the session's answer log is snapshotted to a file after
// every iteration, and -resume restores a previous session from that
// file (replaying its answers) before continuing — so a long interactive
// cleaning run survives interruptions.
//
// Usage:
//
//	visclean -dataset D1 -scale 0.02 -budget 15 -k 10
//	visclean -dataset D1 -interactive -budget 5
//	visclean -csv dirty.csv -query "VISUALIZE bar ..." -interactive
//	visclean -dataset D1 -interactive -state run.json          # checkpoint as you go
//	visclean -resume -state run.json -interactive              # pick up where you left off
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/erg"
	"visclean/internal/obs"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/render"
	"visclean/internal/service"
	"visclean/internal/vql"
)

func main() {
	csvPath := flag.String("csv", "", "dirty CSV file to clean (alternative to -dataset)")
	dsName := flag.String("dataset", "", "generate a synthetic dataset: D1, D2 or D3")
	scale := flag.Float64("scale", 0.02, "synthetic dataset scale factor")
	queryStr := flag.String("query", "", "VQL query (default: a representative query for the dataset)")
	budget := flag.Int("budget", 15, "interaction budget (iterations)")
	k := flag.Int("k", 10, "CQG size")
	selector := flag.String("selector", "gss", "CQG selection: gss, gss+, bb, abb, random, single")
	seed := flag.Int64("seed", 1, "random seed")
	interactive := flag.Bool("interactive", false, "ask questions on the terminal instead of simulating")
	statePath := flag.String("state", "", "snapshot file: the session checkpoints here after every iteration")
	resume := flag.Bool("resume", false, "restore the session from -state before continuing")
	metricsOut := flag.String("metrics-out", "", "enable observability and write accumulated metrics as JSON to this file on exit")
	flag.Parse()

	if *metricsOut != "" {
		obs.SetEnabled(true)
	}
	err := run(*csvPath, *dsName, *queryStr, *scale, *budget, *k, *selector, *seed, *interactive,
		*statePath, *resume)
	if *metricsOut != "" {
		if werr := writeMetrics(*metricsOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "visclean:", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the obs registry as flat JSON for offline
// inspection of a run's per-phase costs and memo/pricer hit rates.
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

func run(csvPath, dsName, queryStr string, scale float64, budget, k int, selectorName string, seed int64, interactive bool, statePath string, resume bool) error {
	var resumeHistory pipeline.History
	if resume {
		if statePath == "" {
			return fmt.Errorf("-resume requires -state")
		}
		snap, err := service.ReadSnapshotFile(statePath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		// The snapshot's spec overrides the construction flags: replay is
		// only sound against the exact session the answers came from.
		dsName, scale, seed = snap.Spec.Dataset, snap.Spec.Scale, snap.Spec.Seed
		queryStr, k, selectorName = snap.Spec.Query, snap.Spec.K, snap.Spec.Selector
		csvPath = ""
		resumeHistory = snap.History
		fmt.Printf("Resuming from %s: %d committed iterations, %d answers\n\n",
			statePath, len(snap.History.Iterations), snap.History.NumAnswers())
	}
	if statePath != "" && dsName == "" {
		return fmt.Errorf("-state/-resume require -dataset (a CSV session has no deterministic origin to replay against)")
	}
	sel, err := service.ParseSelector(selectorName)
	if err != nil {
		return err
	}

	var (
		tbl     *dataset.Table
		keyCols []int
		truth   *oracle.GroundTruth
	)
	switch {
	case dsName != "":
		d, err := datagen.ByName(dsName, datagen.Config{Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		tbl, keyCols, truth = d.Dirty, d.KeyColumns, d.Truth
		if queryStr == "" {
			queryStr = service.Spec{Dataset: dsName}.WithDefaults().Query
		}
	case csvPath != "":
		tbl, err = dataset.LoadCSVFile(csvPath, nil)
		if err != nil {
			return err
		}
		if !interactive {
			return fmt.Errorf("-csv requires -interactive (no ground truth to simulate a user)")
		}
		if queryStr == "" {
			return fmt.Errorf("-csv requires -query")
		}
	default:
		return fmt.Errorf("one of -dataset or -csv is required")
	}

	q, err := vql.Parse(queryStr)
	if err != nil {
		return err
	}

	cfg := pipeline.Config{Selector: sel, K: k, Seed: seed}
	if truth != nil {
		if tv, err := q.Execute(truth.Clean); err == nil {
			cfg.TruthVis = tv
		}
	}
	session, err := pipeline.NewSession(tbl, q, keyCols, cfg)
	if err != nil {
		return err
	}
	if resume {
		if err := session.Replay(resumeHistory); err != nil {
			return err
		}
	}
	// checkpoint snapshots the session after every iteration so a killed
	// run can -resume.
	checkpoint := func() {}
	if statePath != "" {
		spec := service.Spec{
			Dataset: dsName, Scale: scale, Seed: seed,
			Query: queryStr, K: k, Selector: selectorName,
		}.WithDefaults()
		checkpoint = func() {
			snap := service.Snapshot{ID: "cli", Spec: spec, History: session.History()}
			if err := service.WriteSnapshotFile(statePath, snap); err != nil {
				fmt.Fprintln(os.Stderr, "visclean: checkpoint:", err)
			}
		}
		checkpoint()
	}

	var user pipeline.User
	if interactive {
		user = &terminalUser{in: bufio.NewScanner(os.Stdin), table: session.Table()}
	} else {
		user = oracle.New(truth, seed)
	}

	initial, err := session.CurrentVis()
	if err != nil {
		return err
	}
	label := "Initial (dirty)"
	if resume {
		label = "Resumed"
	}
	fmt.Printf("Query: %s\n\n%s visualization:\n%s\n", q.String(), label, render.Chart(initial, 50))
	if d0, err := session.DistToTruth(); err == nil && cfg.TruthVis != nil {
		fmt.Printf("EMD to ground truth: %.5f\n\n", d0)
	}

	for i := 0; i < budget; i++ {
		rep, err := session.RunIteration(user)
		if err != nil {
			return err
		}
		if rep.Exhausted {
			fmt.Println("Nothing left to ask — the ERG is exhausted.")
			break
		}
		checkpoint()
		fmt.Printf("iteration %2d [%s]: %d questions (T=%d A=%d M=%d O=%d), moved %.5f",
			rep.Iteration, rep.Selector, rep.Questions(),
			rep.TQuestions, rep.AQuestions, rep.MQuestions, rep.OQuestions, rep.DistMoved)
		if cfg.TruthVis != nil {
			fmt.Printf(", EMD to truth %.5f", rep.DistToTruth)
		}
		fmt.Println()
	}

	final, err := session.CurrentVis()
	if err != nil {
		return err
	}
	fmt.Printf("\nCleaned visualization after %d iterations:\n%s", session.Iteration(), render.Chart(final, 50))
	if truth != nil && cfg.TruthVis != nil {
		fmt.Printf("\nGround-truth visualization:\n%s", render.Chart(cfg.TruthVis, 50))
	}
	return nil
}

// terminalUser answers questions on the terminal, rendering each CQG
// first — the text edition of the paper's graph GUI.
type terminalUser struct {
	in    *bufio.Scanner
	table *dataset.Table
}

func (u *terminalUser) BeginCQG(g *erg.Graph) {
	fmt.Println()
	fmt.Print(render.CQG(g))
}

func (u *terminalUser) prompt(q string) (string, bool) {
	fmt.Print(q)
	if !u.in.Scan() {
		return "", false
	}
	return strings.TrimSpace(u.in.Text()), true
}

func (u *terminalUser) yesNo(q string) (bool, bool) {
	for {
		ans, ok := u.prompt(q + " [y/n/skip] ")
		if !ok {
			return false, false
		}
		switch strings.ToLower(ans) {
		case "y", "yes":
			return true, true
		case "n", "no":
			return false, true
		case "s", "skip", "":
			return false, false
		}
	}
}

func (u *terminalUser) showTuple(id dataset.TupleID) {
	row, ok := u.table.RowByID(id)
	if !ok {
		return
	}
	var cells []string
	for c, v := range row {
		cells = append(cells, fmt.Sprintf("%s=%s", u.table.Schema()[c].Name, v))
	}
	fmt.Printf("  t%d: %s\n", id, strings.Join(cells, " | "))
}

func (u *terminalUser) AnswerT(a, b dataset.TupleID) (bool, bool) {
	u.showTuple(a)
	u.showTuple(b)
	return u.yesNo(fmt.Sprintf("Are t%d and t%d the same entity?", a, b))
}

func (u *terminalUser) AnswerA(column, v1, v2 string) (bool, bool) {
	return u.yesNo(fmt.Sprintf("Do %s values %q and %q denote the same thing?", column, v1, v2))
}

func (u *terminalUser) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	u.showTuple(id)
	for {
		ans, ok := u.prompt(fmt.Sprintf("t%d is missing %s — enter the value (or skip): ", id, column))
		if !ok || ans == "" || strings.EqualFold(ans, "skip") {
			return 0, false
		}
		if f, err := strconv.ParseFloat(ans, 64); err == nil {
			return f, true
		}
		fmt.Println("  not a number")
	}
}

func (u *terminalUser) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	u.showTuple(id)
	isOut, answered := u.yesNo(fmt.Sprintf("Is %s=%g of t%d wrong (an outlier)?", column, current, id))
	if !answered {
		return false, 0, false
	}
	if !isOut {
		return false, current, true
	}
	for {
		ans, ok := u.prompt("  enter the corrected value (or skip): ")
		if !ok || ans == "" || strings.EqualFold(ans, "skip") {
			return false, 0, false
		}
		if f, err := strconv.ParseFloat(ans, 64); err == nil {
			return true, f, true
		}
		fmt.Println("  not a number")
	}
}
