package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects exact latencies. End-to-end percentiles come from
// every sample, not from log buckets, so a small change in a median is
// visible. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// pct returns the q-quantile (0..1) in microseconds, by the
// nearest-rank rule, or 0 with no samples.
func (s *samples) pct(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.d) == 0 {
		return 0
	}
	sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
	i := int(math.Ceil(q*float64(len(s.d)))) - 1
	i = max(0, min(i, len(s.d)-1))
	return us(s.d[i])
}

// failedLatency is what a failed operation, or a notification that did
// not arrive within its deadline, counts as in the foreground latency
// sample. Failures push the median up instead of dropping out of it, so
// a change that breaks operations cannot read as a latency gain.
const failedLatency = 2 * time.Second

// addFailed records a failure that took d.
func (s *samples) addFailed(d time.Duration) { s.add(max(d, failedLatency)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf returns the median of xs (xs is reordered).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// figure is one reported metric. N is the sample count behind a timing
// (0 for counts and ratios).
type figure struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report is everything one run prints.
type report struct {
	metrics   []figure
	attempted int64
	failed    int64
	// correct is false when the program returned a wrong answer: a stale
	// read, a query result that breaks the predicate, order or length, or
	// an acknowledged write missing after reopen. Operations that only
	// failed or missed their deadline count in failed alone.
	correct bool
}

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, figure{Name: name, Unit: unit, Value: v, N: n})
}

func (r *report) lat(prefix string, s *samples) {
	n := s.count()
	r.add(prefix+"_p50_us", "us", s.pct(0.50), n)
	r.add(prefix+"_p99_us", "us", s.pct(0.99), n)
}

func (r *report) get(name string) (figure, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return figure{}, false
}

// tally counts checked operations. A failure with wrong=true (a wrong
// answer, not just a failed or late one) also marks the run incorrect.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	first     []string // the first few failure descriptions
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.record(0, 1, wrong, format, args...)
}

// record counts ok passed and failed failed checks at once.
func (t *tally) record(ok, failed int64, wrong bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += ok + failed
	if failed == 0 {
		return
	}
	t.failed += failed
	if wrong {
		t.wrong += failed
	}
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

// printReport writes the human-readable table and then, as the last
// line, the JSON result restricted to the names in keep.
func printReport(w io.Writer, workload string, r *report, keep []string) error {
	fmt.Fprintf(w, "# workload %s: attempted=%d failed=%d correct=%v\n", workload, r.attempted, r.failed, r.correct)
	for _, m := range r.metrics {
		if m.N > 0 {
			fmt.Fprintf(w, "%-40s %14.3f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-40s %14.3f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, name := range keep {
		m, ok := r.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
