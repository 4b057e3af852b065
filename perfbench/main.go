// Command perfbench is the repository benchmark: it runs one seeded
// workload end to end, from trace text to verdict, checks every verdict
// against an answer known from outside internal/coherence, and prints
// every metric by name and unit. The last line of standard output is
// the result object; the line before it carries the run metadata.
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it instead calls each layer's public functions one by
// one under spans recorded by this package, and reports the per-layer
// metrics those spans and the program's own counters give, plus the
// traced-minus-untraced overhead. See README.md for the workloads and
// for which layer metric should move which end-to-end metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload relay-1m --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/memory"
)

// endToEnd lists every end-to-end metric with its unit. Every workload
// reports all of them from an untraced run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdict_ms_p50", "ms"},
	{"ops_per_s", "ops/s"},
	{"inputs_per_s", "1/s"},
	{"decided_frac", "ratio"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"max_rate_ok", "req/s"},
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not call reports 0
// over 0 samples, which the metadata line shows. The verdict-time tail
// percentiles are here, unbounded, rather than among the end-to-end
// metrics: on a shared two-CPU host the service's p90 and p99 varied by
// a factor of two to three between runs of one seed, more than any bound
// the benchmark may set. They come from the untraced passes the traced
// run makes.
var perLayer = []struct{ name, unit string }{
	{"verdict_ms_p90", "ms"},
	{"verdict_ms_p99", "ms"},
	{"trace.read_ms", "ms"},
	{"memory.validate_ms", "ms"},
	{"memory.project_ms", "ms"},
	{"memory.project_alloc_mb", "MB"},
	{"memory.check_coherent_ms", "ms"},
	{"fast.solve_ms", "ms"},
	{"fast.alloc_mb", "MB"},
	{"fast.decided_frac", "ratio"},
	{"fast.inconclusive_ms_p50", "ms"},
	{"search.ms_p50", "ms"},
	{"search.states", "count"},
	{"search.states_per_s", "states/s"},
	{"search.memo_hit_rate", "ratio"},
	{"psearch.ms_p50", "ms"},
	{"psearch.speedup_p50", "ratio"},
	{"psearch.slowdown_frac", "ratio"},
	{"specialist.readmap_ms", "ms"},
	{"batch.jobs_per_s", "jobs/s"},
	{"service.batched_frac", "ratio"},
	{"service.parse_ms_p50", "ms"},
	{"service.queue_ms_p99", "ms"},
	{"service.solve_ms_p50", "ms"},
	{"service.solve_ms_p99", "ms"},
	{"service.merge_ms_p50", "ms"},
	{"service.cache_hit_frac", "ratio"},
	{"service.shed", "count"},
	{"service.degraded", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// config is one benchmark run.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	traced     bool
	memverifyd string // server binary, for service-mixed
	spansDir   string // where a traced run writes its spans ("" = nowhere)
	quick      bool   // tiny sizes, for the package tests
	plantWrong bool   // flip the first input's known answer, for the package tests
}

// outcome is what a workload returns: the verdict tally and its
// metrics.
type outcome struct {
	attempted int
	failed    int
	wrong     int // decided verdicts that differ from the known answer
	rep       *report
	tr        *tracer
}

// errBadCertificate marks an ACCEPT whose certificate memory.CheckCoherent
// refuses: a wrong verdict, not a failed operation.
var errBadCertificate = errors.New("certificate fails memory.CheckCoherent")

// recheck re-validates a coherent report's certificate, under a
// memory.CheckCoherent span when t is not nil.
func recheck(t *tracer, parent, input int, exec *memory.Execution, ar *coherence.AddrReport) error {
	if ar.Verdict != coherence.VerdictCoherent {
		return nil
	}
	s := t.begin("memory.CheckCoherent", parent, input)
	err := memory.CheckCoherent(exec, ar.Addr, ar.Result.Schedule)
	t.end(s)
	if err != nil {
		return fmt.Errorf("%w: address %d: %v", errBadCertificate, ar.Addr, err)
	}
	return nil
}

// worse folds per-address verdicts the way Report.Verdict does.
func worse(a, b coherence.ResilientVerdict) coherence.ResilientVerdict {
	if a == coherence.VerdictIncoherent || b == coherence.VerdictIncoherent {
		return coherence.VerdictIncoherent
	}
	if a == coherence.VerdictUnknown || b == coherence.VerdictUnknown {
		return coherence.VerdictUnknown
	}
	return coherence.VerdictCoherent
}

// check scores one verdict against the known answer. An undecided
// verdict is not wrong; it shows in decided_frac.
func (o *outcome) check(v coherence.ResilientVerdict, coherent bool) {
	switch v {
	case coherence.VerdictCoherent:
		if !coherent {
			o.wrong++
		}
	case coherence.VerdictIncoherent:
		if coherent {
			o.wrong++
		}
	}
}

// fail records an operation that returned an error. A refused
// certificate is a wrong verdict rather than a failure.
func (o *outcome) fail(err error) {
	if errors.Is(err, errBadCertificate) {
		o.wrong++
		return
	}
	o.failed++
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"relay-1m":      runRelay,
	"fig41-sweep":   runFig41,
	"service-mixed": runService,
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metadata is the line before the result: how and where the run was
// made, and the sample count behind every percentile.
type metadata struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	Wrong        int            `json:"wrong_verdicts"`
	Samples      map[string]int `json:"samples"`
	NotExercised []string       `json:"not_exercised,omitempty"`
}

// commit returns the VCS revision stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run executes one workload and assembles the result and metadata.
func run(ctx context.Context, cfg config) (*result, *metadata, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	out, err := fn(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	meta := &metadata{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Wrong:      out.wrong,
		Samples:    map[string]int{},
	}
	res := &result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	for _, m := range want {
		got, ok := out.rep.metrics[m.name]
		switch {
		case ok && got.Unit != m.unit:
			return nil, nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.name, got.Unit, m.unit)
		case !ok && !cfg.traced:
			return nil, nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		case !ok:
			got = metric{Value: 0, Unit: m.unit}
			meta.NotExercised = append(meta.NotExercised, m.name)
		}
		res.Metrics[m.name] = got
		meta.Samples[m.name] = out.rep.samples[m.name]
	}
	if cfg.traced && cfg.spansDir != "" && out.tr != nil {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := out.tr.writeJSONL(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, meta, nil
}

// duration converts the --seconds budget to a duration.
func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: relay-1m, fig41-sweep or service-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.memverifyd, "memverifyd", "", "memverifyd binary (service-mixed)")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory a traced run writes its spans to")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = traceFlag == 1

	res, meta, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d verdicts differ from the known answer\n", meta.Wrong)
		os.Exit(1)
	}
}
