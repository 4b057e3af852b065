package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of that layer. Spans of one input share
// Input; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Input  int     `json:"input"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	// AllocMB is the heap allocated during the span, recorded only by
	// spans opened with beginAlloc.
	AllocMB float64 `json:"alloc_mb,omitempty"`

	allocBefore uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so the untraced path pays only
// a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) since() float64 {
	return float64(time.Since(t.t0)) / float64(time.Millisecond)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, input int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Input: input, Name: name, Start: t.since()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// beginAlloc opens a span that also records the bytes the heap
// allocated while it was open. Reading the allocator's counters stops
// the world, so it happens outside the span's timed interval and only
// on the traced path, which is single-threaded where it is used.
func (t *tracer) beginAlloc(name string, parent, input int) int {
	if t == nil {
		return 0
	}
	before := totalAlloc()
	id := t.begin(name, parent, input)
	t.mu.Lock()
	t.spans[id-1].allocBefore = before
	t.mu.Unlock()
	return id
}

// endAlloc closes a span opened with beginAlloc.
func (t *tracer) endAlloc(id int) {
	if t == nil {
		return
	}
	t.end(id)
	after := totalAlloc()
	t.mu.Lock()
	t.spans[id-1].AllocMB = float64(after-t.spans[id-1].allocBefore) / (1 << 20)
	t.mu.Unlock()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// perInput sums, per input, the durations (ms) or allocations (MB) of
// every span named name, in input order. Inputs without such a span are
// absent.
func (t *tracer) perInput(name string, alloc bool) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Input]; !ok {
			order = append(order, s.Input)
		}
		if alloc {
			sums[s.Input] += s.AllocMB
		} else {
			sums[s.Input] += s.End - s.Start
		}
	}
	out := make([]float64, len(order))
	for i, in := range order {
		out[i] = sums[in]
	}
	return out
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by nearest rank (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads VmHWM, the peak resident set size, of process pid
// ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics and the sample count behind each.
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// setQuantile records the q-quantile of xs.
func (r *report) setQuantile(name, unit string, xs []float64, q float64) {
	r.set(name, unit, quantile(xs, q), len(xs))
}

// ingestLayers reports the ingest and memory-layer figures every traced
// run records: per input, the median time in trace.Read,
// Execution.Validate, Execution.Project (and its allocation) and the
// certificate re-check.
func (r *report) ingestLayers(t *tracer) {
	r.setQuantile("trace.read_ms", "ms", t.perInput("trace.Read", false), 0.5)
	r.setQuantile("memory.validate_ms", "ms", t.perInput("memory.Validate", false), 0.5)
	r.setQuantile("memory.project_ms", "ms", t.perInput("memory.Project", false), 0.5)
	r.setQuantile("memory.project_alloc_mb", "MB", t.perInput("memory.Project", true), 0.5)
	r.setQuantile("memory.check_coherent_ms", "ms", t.perInput("memory.CheckCoherent", false), 0.5)
}

// tracedTotals reports, for a closed-loop traced run, the verdict-time
// tails of its untraced passes and the overhead of the traced passes
// over them on the same inputs.
func (r *report) tracedTotals(untracedMS, tracedMS []float64) {
	r.setQuantile("verdict_ms_p90", "ms", untracedMS, 0.9)
	r.setQuantile("verdict_ms_p99", "ms", untracedMS, 0.99)
	r.set("bench.trace_overhead_frac", "ratio", ratio(sum(tracedMS)-sum(untracedMS), sum(untracedMS)), len(tracedMS))
}

// closedLoop reports the end-to-end metrics of one caller that waits for
// each verdict: setup_s over the set-up steps, verdict_ms_p50 per input,
// and rates over busy, the time spent verifying.
func (r *report) closedLoop(o *outcome, setup, verdictMS []float64, ops, decided int, busy time.Duration) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	n := len(verdictMS)
	secs := busy.Seconds()
	r.setQuantile("setup_s", "s", setup, 0.5)
	r.setQuantile("verdict_ms_p50", "ms", verdictMS, 0.5)
	r.set("ops_per_s", "ops/s", ratio(float64(ops), secs), n)
	r.set("inputs_per_s", "1/s", ratio(float64(decided), secs), n)
	r.set("decided_frac", "ratio", ratio(float64(decided), float64(o.attempted)), o.attempted)
	r.set("ok_frac", "ratio", ratio(float64(o.attempted-o.failed), float64(o.attempted)), o.attempted)
	r.set("peak_rss_mb", "MB", rss, 1)
	// The highest rate a closed loop sustains is the rate it completes
	// inputs at.
	r.set("max_rate_ok", "req/s", ratio(float64(decided), secs), n)
	return nil
}
