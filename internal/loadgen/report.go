package loadgen

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stats is the concurrent sink every driver reports into.
type Stats struct {
	mu        sync.Mutex
	answerLat []float64 // milliseconds
	iterLat   []float64 // milliseconds (iterate POST → accepted)
	nCreated  int
	nComplete int
	nFailed   int
	nRejects  int // 503 backpressure responses observed
	nRetries  int // all transient-retry events
}

func NewStats() *Stats { return &Stats{} }

func (s *Stats) answerLatency(d time.Duration) {
	s.mu.Lock()
	s.answerLat = append(s.answerLat, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *Stats) iterateLatency(d time.Duration) {
	s.mu.Lock()
	s.iterLat = append(s.iterLat, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

// Answered reports how many answers have been acked so far — the
// chaos harness uses it to time a shard kill mid-storm.
func (s *Stats) Answered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.answerLat)
}

func (s *Stats) created()  { s.mu.Lock(); s.nCreated++; s.mu.Unlock() }
func (s *Stats) complete() { s.mu.Lock(); s.nComplete++; s.mu.Unlock() }
func (s *Stats) fail()     { s.mu.Lock(); s.nFailed++; s.mu.Unlock() }
func (s *Stats) reject()   { s.mu.Lock(); s.nRejects++; s.mu.Unlock() }
func (s *Stats) retry()    { s.mu.Lock(); s.nRetries++; s.mu.Unlock() }

// Percentile returns the p-th percentile (0–100, nearest-rank) of vs,
// or 0 when empty.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	// Nearest-rank definition: the smallest element with at least p% of
	// the sample at or below it, i.e. ceil(p/100·n), 1-based. Rounding
	// (+0.5) under-reported whenever the rank fraction fell below .5 —
	// e.g. p10 of 13 samples is ceil(1.3)=2 but rounded to 1.
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LatencySummary condenses a latency sample (milliseconds).
type LatencySummary struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

func summarize(vs []float64) LatencySummary {
	out := LatencySummary{Count: len(vs)}
	if len(vs) == 0 {
		return out
	}
	out.P50Ms = Percentile(vs, 50)
	out.P90Ms = Percentile(vs, 90)
	out.P99Ms = Percentile(vs, 99)
	for _, v := range vs {
		if v > out.MaxMs {
			out.MaxMs = v
		}
	}
	return out
}

// ShardLoad is one shard's row in the report.
type ShardLoad struct {
	Shard    string `json:"shard"`
	Sessions int    `json:"sessions"` // -1 when unreachable
}

// Report is the JSON document cmd/loadgen writes for one storm.
type Report struct {
	Sessions    int     `json:"sessions"`
	Concurrency int     `json:"concurrency"`
	Iterations  int     `json:"iterations_per_session"`
	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	ElapsedSec  float64 `json:"elapsed_sec"`

	Answer  LatencySummary `json:"answer_latency"`
	Iterate LatencySummary `json:"iterate_latency"`

	Rejects503 int `json:"rejects_503"`
	Retries    int `json:"retries"`

	SessionsPerShard []ShardLoad `json:"sessions_per_shard,omitempty"`

	// Migrations/Retries/Requests come from the router's /metrics.
	RouterMetrics map[string]float64 `json:"router_metrics,omitempty"`
}

// buildReport assembles the report and scrapes shard placement plus
// the router's visclean_router_* families.
func buildReport(opts Options, stats *Stats, elapsed time.Duration) *Report {
	stats.mu.Lock()
	rep := &Report{
		Sessions:    opts.Sessions,
		Concurrency: opts.Concurrency,
		Iterations:  opts.Iterations,
		Completed:   stats.nComplete,
		Failed:      stats.nFailed,
		ElapsedSec:  elapsed.Seconds(),
		Answer:      summarize(stats.answerLat),
		Iterate:     summarize(stats.iterLat),
		Rejects503:  stats.nRejects,
		Retries:     stats.nRetries,
	}
	stats.mu.Unlock()

	for _, sh := range opts.Shards {
		rep.SessionsPerShard = append(rep.SessionsPerShard, ShardLoad{
			Shard:    sh,
			Sessions: countSessions(opts.Client, sh),
		})
	}
	if fams, err := ScrapeMetrics(opts.Client, opts.BaseURL); err == nil {
		rep.RouterMetrics = make(map[string]float64)
		for name, v := range fams {
			if strings.HasPrefix(name, "visclean_router_") {
				rep.RouterMetrics[name] = v
			}
		}
	}
	return rep
}

// countSessions asks one shard how many sessions it holds.
func countSessions(client *http.Client, base string) int {
	resp, err := client.Get(base + "/api/sessions")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var part []json.RawMessage
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&part) != nil {
		return -1
	}
	return len(part)
}

// ScrapeMetrics fetches a /metrics endpoint and folds the Prometheus
// text into name → summed value (labels collapsed, histogram series
// kept under their full sample names like family_bucket).
func ScrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "name{labels} value" or "name value"
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// WriteJSON writes the report to path, pretty-printed.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
