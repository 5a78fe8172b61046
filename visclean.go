// Package visclean is a from-scratch Go implementation of VisClean, the
// interactive-cleaning-for-progressive-visualization (ICPV) system of
//
//	Luo, Chai, Qin, Tang, Li. "Interactive Cleaning for Progressive
//	Visualization through Composite Questions." ICDE 2020.
//
// Given a visualization query over a dirty dataset and a small
// interaction budget, VisClean iteratively asks the user composite
// cleaning questions — small connected subgraphs of an errors-and-repairs
// graph bundling duplicate/missing/outlier questions — chosen to maximize
// an estimated visualization-quality benefit, and applies the answers to
// progressively turn a bad chart into a good one.
//
// Quick start:
//
//	tbl, _ := visclean.LoadCSV("pubs.csv", nil)
//	q := visclean.MustParseQuery(`VISUALIZE bar SELECT Venue, SUM(Citations)
//	    FROM pubs TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
//	session, _ := visclean.NewSession(tbl, q, nil, visclean.Config{Seed: 1})
//	reports, _ := session.Run(user, 15) // user implements visclean.User
//
// The subpackages under internal/ hold the substrates (relational tables,
// the VQL query language, EMD, the random-forest entity matcher, the ERG
// and CQG selection algorithms, dataset generators, the simulated user);
// this package re-exports the surface a downstream application needs.
package visclean

import (
	"io"

	"visclean/internal/crowd"
	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/erg"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/render"
	"visclean/internal/usercost"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// Core data model.
type (
	// Table is an in-memory relation with stable tuple identifiers.
	Table = dataset.Table
	// Schema describes a table's columns.
	Schema = dataset.Schema
	// Column is one attribute (name + kind).
	Column = dataset.Column
	// Value is one nullable cell.
	Value = dataset.Value
	// TupleID identifies a tuple across table versions.
	TupleID = dataset.TupleID
)

// Column kinds.
const (
	String = dataset.String
	Float  = dataset.Float
)

// Cell constructors.
var (
	Str  = dataset.Str
	Num  = dataset.Num
	Null = dataset.Null
)

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table { return dataset.NewTable(schema) }

// LoadCSV reads a table from a CSV file; a nil schema infers column kinds.
func LoadCSV(path string, schema Schema) (*Table, error) {
	return dataset.LoadCSVFile(path, schema)
}

// ReadCSV reads a table from a CSV stream; a nil schema infers kinds.
func ReadCSV(r io.Reader, schema Schema) (*Table, error) {
	return dataset.ReadCSV(r, schema)
}

// Query language (§II-A).
type (
	// Query is a parsed VQL statement.
	Query = vql.Query
	// VisData is a materialized visualization (bar/pie series).
	VisData = vis.Data
)

// ParseQuery parses a VQL statement.
func ParseQuery(src string) (*Query, error) { return vql.Parse(src) }

// MustParseQuery parses a known-good VQL statement, panicking on error.
func MustParseQuery(src string) *Query { return vql.MustParse(src) }

// Visualization distances (§II-B). Dist is the one every session
// measures with (label-aligned EMD); EMD is the paper's literal
// Eq. (1)–(4).
var (
	Dist = distance.Default
	EMD  = distance.EMD
	L1   = distance.L1
	L2   = distance.L2
	KL   = distance.KL
	JS   = distance.JS
)

// Cleaning session (§III).
type (
	// Session is one interactive cleaning run.
	Session = pipeline.Session
	// Config parameterizes a session; zero values take paper defaults.
	Config = pipeline.Config
	// User answers cleaning questions (implemented by Oracle and by
	// interactive frontends).
	User = pipeline.User
	// Report describes one iteration's outcome.
	Report = pipeline.Report
	// SelectorKind names a CQG selection algorithm.
	SelectorKind = pipeline.SelectorKind
)

// CQG selection strategies (§V-B and the §VII baselines).
const (
	SelectGSS     = pipeline.SelectGSS
	SelectGSSPlus = pipeline.SelectGSSPlus
	SelectBB      = pipeline.SelectBB
	SelectAlphaBB = pipeline.SelectAlphaBB
	SelectRandom  = pipeline.SelectRandom
	SelectSingle  = pipeline.SelectSingle
)

// NewSession starts a cleaning session over a dirty table. keyColumns are
// the blocking-key column indices for entity matching (nil picks the
// first string column).
func NewSession(table *Table, query *Query, keyColumns []int, cfg Config) (*Session, error) {
	return pipeline.NewSession(table, query, keyColumns, cfg)
}

// Synthetic datasets with ground truth (§VII-A substitutes).
type (
	// Dataset bundles a generated dirty table with its ground truth.
	Dataset = datagen.Dataset
	// GenConfig controls generation scale and seed.
	GenConfig = datagen.Config
	// GroundTruth is what the generator corrupted.
	GroundTruth = oracle.GroundTruth
	// Oracle simulates the human participant, with Exp-3's noise knobs.
	Oracle = oracle.Oracle
	// CostModel prices user interactions in seconds (Figs 15–16).
	CostModel = usercost.Model
	// ERG is the errors-and-repairs graph (Definition 2.1).
	ERG = erg.Graph
)

// Generators for the paper's three evaluation datasets.
var (
	GenerateD1 = datagen.D1
	GenerateD2 = datagen.D2
	GenerateD3 = datagen.D3
)

// NewOracle builds a simulated user over recorded ground truth.
func NewOracle(truth *GroundTruth, seed int64) *Oracle { return oracle.New(truth, seed) }

// CrowdPanel is a pool of imperfect simulated workers answering each
// question by majority vote / median — the crowdsourcing substrate the
// paper's ground truth was collected with. It implements User.
type CrowdPanel = crowd.Panel

// NewCrowdPanel builds n workers with accuracies drawn from
// [minAcc, maxAcc] over the ground truth.
func NewCrowdPanel(truth *GroundTruth, n int, minAcc, maxAcc float64, seed int64) *CrowdPanel {
	return crowd.NewPanel(truth, n, minAcc, maxAcc, seed)
}

// NewCostModel builds the calibrated user-time model.
func NewCostModel(seed int64) *CostModel { return usercost.NewModel(seed) }

// Rendering (§VI, terminal edition).
var (
	// RenderChart draws a bar or pie chart as text.
	RenderChart = render.Chart
	// RenderCQG draws a composite question graph as text.
	RenderCQG = render.CQG
	// VegaLite encodes a visualization as a Vega-Lite v5 spec.
	VegaLite = render.VegaLite
)
