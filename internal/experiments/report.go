package experiments

import (
	"encoding/json"
	"strings"
	"sync"
	"time"

	"sbgp/internal/sim"
)

// JSON report emission: next to every <id>.txt report the harness
// writes <id>.json carrying the same data machine-readably — the parsed
// rows plus the per-simulation records (cache keys, wall times, final
// counts, per-round stats) that the text reports summarize away.

// SimRecord describes one simulation request an experiment made.
type SimRecord struct {
	// Key, Graph, Config and Cached mirror SimRun (see store.go).
	Key    string `json:"key"`
	Graph  string `json:"graph"`
	Config string `json:"config"`
	Cached bool   `json:"cached"`
	// WallMS is the execution wall time in milliseconds (0 when Cached).
	WallMS float64 `json:"wall_ms"`
	// SharedRounds counts the round computations, the pristine pass
	// included, that the round memo served to this execution (0 when
	// Cached).
	SharedRounds int `json:"shared_rounds"`
	// Rounds is the number of best-response rounds the run took.
	Rounds int `json:"rounds"`
	// Final counts the end-state deployment; Stable/Oscillated classify
	// the trajectory (Appendix F).
	Final      sim.Counts `json:"final"`
	Stable     bool       `json:"stable"`
	Oscillated bool       `json:"oscillated"`
	// RoundStats carries the per-round instrumentation (skips,
	// candidate counts, timings) when the engine recorded it.
	RoundStats []*sim.RoundStats `json:"round_stats,omitempty"`
}

// simRecorder accumulates SimRecords for one experiment run. The nil
// recorder (direct Run calls outside a batch) discards notes.
type simRecorder struct {
	mu      sync.Mutex
	records []SimRecord
}

func (r *simRecorder) note(res *sim.Result, run SimRun) {
	if r == nil {
		return
	}
	rec := SimRecord{
		Key:          run.Key,
		Graph:        run.Graph,
		Config:       run.Config,
		Cached:       run.Cached,
		WallMS:       run.WallMS,
		SharedRounds: run.SharedRounds,
		Rounds:       len(res.Rounds),
		Final:        res.Final,
		Stable:       res.Stable,
		Oscillated:   res.Oscillated,
	}
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			rec.RoundStats = append(rec.RoundStats, rd.Stats)
		}
	}
	r.mu.Lock()
	r.records = append(r.records, rec)
	r.mu.Unlock()
}

func (r *simRecorder) snapshot() []SimRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SimRecord(nil), r.records...)
}

// Report is the machine-readable form of one experiment's output.
type Report struct {
	ID      string        `json:"id"`
	Desc    string        `json:"desc"`
	Options ReportOptions `json:"options"`
	// WallMS is the experiment's wall time in milliseconds. Cached
	// reruns report their (much smaller) re-render time.
	WallMS float64 `json:"wall_ms"`
	// Header holds the report's comment lines ("# ..." prefix
	// stripped); Rows holds every other non-blank line, split on
	// whitespace, in order.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Sims lists every simulation request the experiment made, in
	// request order.
	Sims []SimRecord `json:"sims"`
}

// ReportOptions is the result-relevant subset of Options.
type ReportOptions struct {
	N    int     `json:"n"`
	Seed int64   `json:"seed"`
	X    float64 `json:"x"`
}

// buildReport parses an experiment's text report into its JSON form.
func buildReport(id string, opt Options, text []byte, wall time.Duration, sims []SimRecord) *Report {
	rep := &Report{
		ID:      id,
		Desc:    Describe(id),
		Options: ReportOptions{N: opt.N, Seed: opt.Seed, X: opt.X},
		WallMS:  float64(wall) / float64(time.Millisecond),
		Header:  []string{},
		Rows:    [][]string{},
		Sims:    sims,
	}
	if rep.Sims == nil {
		rep.Sims = []SimRecord{}
	}
	for _, line := range strings.Split(string(text), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
		case strings.HasPrefix(trimmed, "#"):
			rep.Header = append(rep.Header, strings.TrimSpace(strings.TrimPrefix(trimmed, "#")))
		default:
			rep.Rows = append(rep.Rows, strings.Fields(trimmed))
		}
	}
	return rep
}

// renderReport serializes a Report as indented JSON.
func renderReport(rep *Report) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
