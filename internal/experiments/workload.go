// Package experiments reproduces every table and figure of the paper's
// evaluation (§VII): the 18-query workload of Table V, the end-to-end
// cleaning runs of Figs 10–13, the selector comparison of Fig 14, the
// user-cost curves of Figs 15–16, the noisy-input study of Table VI and
// the selection-efficiency study of Figs 17–18. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"fmt"
	"sync"

	"visclean/internal/datagen"
	"visclean/internal/vql"
)

// Task is one visualization task of Table V.
type Task struct {
	ID      string // "Q1".."Q18"
	Dataset string // "D1", "D2", "D3"
	VQL     string
	// Note documents where the reconstruction deviates from the paper's
	// (partially garbled) Table V.
	Note string
}

// Workload returns the 18 visualization tasks of Table V. The table in
// the paper's text is OCR-damaged; rows whose definition is explicit in
// the prose (Q1, Q2, Q7, Q8, Q11–Q13, Q15) are exact, the rest are
// reconstructions consistent with the legible fragments (chart type,
// axes, transform, filters).
func Workload() []Task {
	return []Task{
		{ID: "Q1", Dataset: "D1", Note: "top-10 venues by total citations (running example, Fig 10)",
			VQL: `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`},
		{ID: "Q2", Dataset: "D1", Note: "share of publications per year (Fig 1b)",
			VQL: `VISUALIZE pie SELECT Year, COUNT(Year) FROM D1 TRANSFORM GROUP BY Year SORT X BY ASC`},
		{ID: "Q3", Dataset: "D1", Note: "publications per venue",
			VQL: `VISUALIZE bar SELECT Venue, COUNT(Venue) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`},
		{ID: "Q4", Dataset: "D1", Note: "citation histogram, interval 200",
			VQL: `VISUALIZE bar SELECT Citations, COUNT(Citations) FROM D1 TRANSFORM BIN Citations BY INTERVAL 200`},
		{ID: "Q5", Dataset: "D1", Note: "publications per 5-year period",
			VQL: `VISUALIZE bar SELECT Year, COUNT(Year) FROM D1 TRANSFORM BIN Year BY INTERVAL 5`},
		{ID: "Q6", Dataset: "D1", Note: "top venues by average citations",
			VQL: `VISUALIZE bar SELECT Venue, AVG(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`},
		{ID: "Q7", Dataset: "D1", Note: "highly-cited SIGMOD papers per 5-year period after 1999 (Fig 11)",
			VQL: `VISUALIZE bar SELECT Year, COUNT(Year) FROM D1 TRANSFORM BIN Year BY INTERVAL 5 WHERE Year > 1999 AND Venue = 'SIGMOD' AND Citations > 100`},
		{ID: "Q8", Dataset: "D1", Note: "venue share of recent publications (Fig 12)",
			VQL: `VISUALIZE pie SELECT Venue, COUNT(Venue) FROM D1 TRANSFORM GROUP BY Venue WHERE Year > 2009 SORT Y BY DESC LIMIT 10`},
		{ID: "Q9", Dataset: "D2", Note: "players per team",
			VQL: `VISUALIZE bar SELECT Team, COUNT(Team) FROM D2 TRANSFORM GROUP BY Team SORT Y BY DESC LIMIT 10`},
		{ID: "Q10", Dataset: "D2", Note: "team share of total points",
			VQL: `VISUALIZE pie SELECT Team, SUM(#Points) FROM D2 TRANSFORM GROUP BY Team SORT Y BY DESC LIMIT 10`},
		{ID: "Q11", Dataset: "D2", Note: "games played by Lakers players",
			VQL: `VISUALIZE bar SELECT Player, SUM(#Games) FROM D2 TRANSFORM GROUP BY Player WHERE Team = 'Lakers' SORT Y BY DESC LIMIT 10`},
		{ID: "Q12", Dataset: "D2", Note: "points-per-game histogram of forwards, interval 5",
			VQL: `VISUALIZE bar SELECT #Points, COUNT(#Points) FROM D2 TRANSFORM BIN #Points BY INTERVAL 5 WHERE Position = 'Forward'`},
		{ID: "Q13", Dataset: "D2", Note: "top guards by points",
			VQL: `VISUALIZE pie SELECT Player, SUM(#Points) FROM D2 TRANSFORM GROUP BY Player WHERE Position = 'Guard' SORT Y BY DESC LIMIT 10`},
		{ID: "Q14", Dataset: "D3", Note: "books per publisher",
			VQL: `VISUALIZE pie SELECT Publ, COUNT(Publ) FROM D3 TRANSFORM GROUP BY Publ SORT Y BY DESC LIMIT 10`},
		{ID: "Q15", Dataset: "D3", Note: "average rating per publisher, English books",
			VQL: `VISUALIZE bar SELECT Publ, AVG(Rating) FROM D3 TRANSFORM GROUP BY Publ WHERE Lang = 'English' SORT Y BY DESC LIMIT 10`},
		{ID: "Q16", Dataset: "D3", Note: "average rating per author, English books",
			VQL: `VISUALIZE pie SELECT Author, AVG(Rating) FROM D3 TRANSFORM GROUP BY Author WHERE Lang = 'English' SORT Y BY DESC LIMIT 10`},
		{ID: "Q17", Dataset: "D3", Note: "top-5 authors by total rating mass",
			VQL: `VISUALIZE bar SELECT Author, SUM(Rating) FROM D3 TRANSFORM GROUP BY Author SORT Y BY DESC LIMIT 5`},
		{ID: "Q18", Dataset: "D3", Note: "rating histogram, interval 1",
			VQL: `VISUALIZE bar SELECT Rating, COUNT(Rating) FROM D3 TRANSFORM BIN Rating BY INTERVAL 1`},
	}
}

// TaskByID finds a workload task.
func TaskByID(id string) (Task, error) {
	for _, t := range Workload() {
		if t.ID == id {
			return t, nil
		}
	}
	return Task{}, fmt.Errorf("experiments: no task %q", id)
}

// Env caches generated datasets so the 18 tasks share three generations.
// Dataset access is mutex-guarded: the parallel experiment drivers fan
// runs out across goroutines.
type Env struct {
	Scale float64
	Seed  int64
	// Workers is passed through to every session's pipeline.Config: it
	// bounds the benefit engine's and forest training's fan-out. 0 keeps
	// the pipeline default; results are identical for every value.
	Workers int
	mu      sync.Mutex
	data    map[string]*datagen.Dataset
}

// NewEnv creates an experiment environment at the given generator scale.
// Scale 1.0 reproduces Table IV sizes; the harness defaults to 0.05 so a
// full run finishes in minutes (see EXPERIMENTS.md).
func NewEnv(scale float64, seed int64) *Env {
	return &Env{Scale: scale, Seed: seed, data: map[string]*datagen.Dataset{}}
}

// Dataset returns (generating on first use) one of D1/D2/D3.
func (e *Env) Dataset(name string) *datagen.Dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.data[name]; ok {
		return d
	}
	d, err := datagen.ByName(name, datagen.Config{Scale: e.Scale, Seed: e.Seed})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	e.data[name] = d
	return d
}

// Materialize resolves a task into its dataset and parsed query.
func (e *Env) Materialize(id string) (Task, *datagen.Dataset, *vql.Query, error) {
	task, err := TaskByID(id)
	if err != nil {
		return Task{}, nil, nil, err
	}
	d := e.Dataset(task.Dataset)
	q, err := vql.Parse(task.VQL)
	if err != nil {
		return Task{}, nil, nil, fmt.Errorf("experiments: task %s: %w", id, err)
	}
	return task, d, q, nil
}
