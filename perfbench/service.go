package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/memory"
	"memverify/internal/trace"
	"memverify/internal/workload"
)

// service-mixed: a memverifyd child process with one worker per CPU and
// its result cache on, driven over HTTP as an open loop at a few fixed
// rates by at most one connection per CPU. Every request is a distinct
// seeded trace, warm-up included, so the cache never answers. Parse,
// validate and project run here on many tiny traces instead of one huge
// one, the opposite shape to relay-1m.

// svcRates are the fixed open-loop rate steps, in requests per second,
// and svcWarmRate the rate of the unmeasured warm-up before them. The
// middle step is where latency is reported.
var svcRates = []float64{400, 800, 1200}

const svcWarmRate = 400

// svcLimit is the p99 latency limit a rate step must meet. Steps
// measure a p99 of a few milliseconds; the limit sits far above that
// because the shared host now and then stalls for most of a tenth of a
// second, and a tighter limit let one such stall fail the top step and
// swing max_rate_ok by a whole step.
const svcLimit = 100 * time.Millisecond

// svcWarmup is the length of the unmeasured warm-up.
const svcWarmup = time.Second

// svcBoots is how many times set-up boots the server; setup_s is the
// median, and the last server booted is the one measured.
const svcBoots = 3

// batchMaxOps mirrors memverifyd's batch plan: an address with at most
// this many memory operations rides the pooled SolveBatch shard.
const batchMaxOps = 32

// svcInput is one request: its JSON body, its trace text for the
// in-process layer probes, and its known answer.
type svcInput struct {
	body     []byte
	text     string
	ops      int
	addrs    int
	unique   bool // every written value distinct: the read-map row
	coherent bool
}

// svcRequest generates request i. About half the traces write unique
// values and half repeat a few values; most are litmus-sized with
// several small addresses, some have one or two larger addresses; about
// one in five is injected with a phantom value or a wrong final value,
// the two mutations that are always incoherent. Every value is shifted
// by a per-request offset, so no two requests share a fingerprint.
func svcRequest(rng *rand.Rand, i int) (svcInput, error) {
	unique := rng.Intn(2) == 0
	cfg := workload.GenConfig{
		Processors: 2 + rng.Intn(3), OpsPerProc: 4 + rng.Intn(9), Addresses: 2 + rng.Intn(5),
		Values: 3, WriteFraction: 0.4, UniqueWrites: unique,
	}
	if rng.Intn(5) == 0 {
		cfg.Processors, cfg.OpsPerProc, cfg.Addresses = 3, 20+rng.Intn(21), 1+rng.Intn(2)
	}
	exec, _ := workload.GenerateCoherent(rng, cfg)
	shiftValues(exec, memory.Value(i+1)<<20)
	coherent := true
	if rng.Intn(5) == 0 {
		kinds := []workload.ViolationKind{workload.ViolationPhantomValue, workload.ViolationWrongFinal}
		if rng.Intn(2) == 0 {
			kinds[0], kinds[1] = kinds[1], kinds[0]
		}
		for _, k := range kinds {
			if bad, err := workload.Inject(rng, exec, k); err == nil {
				exec, coherent = bad, false
				break
			}
		}
	}
	var b strings.Builder
	if err := trace.Write(&b, trace.New(exec)); err != nil {
		return svcInput{}, err
	}
	body, err := json.Marshal(map[string]string{"trace": b.String()})
	if err != nil {
		return svcInput{}, err
	}
	return svcInput{
		body: body, text: b.String(), ops: exec.NumMemoryOps(), addrs: len(exec.Addresses()),
		unique: unique, coherent: coherent,
	}, nil
}

// shiftValues adds off to every value of exec.
func shiftValues(exec *memory.Execution, off memory.Value) {
	for _, h := range exec.Histories {
		for j := range h {
			h[j].Data += off
			h[j].Store += off
		}
	}
	for a := range exec.Initial {
		exec.Initial[a] += off
	}
	for a := range exec.Final {
		exec.Final[a] += off
	}
}

// svcPlan is the request schedule of a run: the warm-up, then one slice
// of requests per rate step.
type svcPlan struct {
	warm  []svcInput
	steps [][]svcInput
}

func svcGenerate(seed int64, warm int, steps []int) (*svcPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	next := func(n int) ([]svcInput, error) {
		out := make([]svcInput, n)
		for j := range out {
			in, err := svcRequest(rng, i)
			if err != nil {
				return nil, err
			}
			out[j] = in
			i++
		}
		return out, nil
	}
	p := &svcPlan{}
	var err error
	if p.warm, err = next(warm); err != nil {
		return nil, err
	}
	for _, n := range steps {
		s, err := next(n)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, s)
	}
	return p, nil
}

// firstLine captures the first line a child process prints and
// discards the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	done bool
	line chan string // capacity 1: receives the line once
}

func (w *firstLine) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.line <- string(w.buf[:i])
		w.done, w.buf = true, nil
	}
	return len(p), nil
}

// server is a memverifyd child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startServer boots memverifyd on a free local port and waits for its
// first healthy /v1/healthz.
func startServer(ctx context.Context, bin string, workers int) (*server, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("service-mixed needs --memverifyd")
	}
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	out := &firstLine{line: make(chan string, 1)}
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	// The child dies with this process even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting memverifyd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	select {
	case line := <-out.line:
		i := strings.Index(line, "http://")
		if i < 0 {
			return fail(fmt.Errorf("memverifyd printed %q, not its address", line))
		}
		s.url = strings.Fields(line[i:])[0]
	case err := <-s.done:
		s.done <- err
		return fail(fmt.Errorf("memverifyd exited at start: %v", err))
	case <-time.After(30 * time.Second):
		return fail(errors.New("memverifyd did not print its address within 30s"))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/healthz", nil)
		if err != nil {
			return fail(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("memverifyd not healthy within 30s: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the child and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the child's VmHWM while it is still running.
func (s *server) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// sample is one request's fate in a load step. Latency is measured from
// when the request was due, so a stall that delays later requests
// counts against them.
type sample struct {
	due, queued, done time.Time
	status            int
	verdict           string
	err               error
}

func (s *sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }

// loadStep offers reqs at rate per second, open loop, over conns
// connections: requests are released on schedule whether or not
// earlier ones have been answered, and wait for a free connection.
func loadStep(ctx context.Context, client *http.Client, url string, reqs []svcInput, rate float64, conns int, t *tracer, input0 int) []sample {
	out := make([]sample, len(reqs))
	jobs := make(chan int, len(reqs)) // one slot per request: release never blocks on the connections
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sp := t.begin("memverifyd.POST /v1/verify", 0, input0+j)
				out[j].status, out[j].verdict, out[j].err = post(ctx, client, url, reqs[j].body)
				t.end(sp)
				out[j].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for j := range reqs {
		due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[j].due, out[j].queued = due, time.Now()
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return out
}

// post sends one verify request and returns the HTTP status and the
// verdict of a 200 answer.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v struct {
		Verdict string `json:"verdict"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return resp.StatusCode, "", fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, v.Verdict, nil
}

// stepResult summarizes one rate step.
type stepResult struct {
	achieved float64 // decided answers per second over the step
	latMS    []float64
	lateMS   []float64
	decided  int
	errors   int
	ops      int
	addrs    int
	backlog  int // requests due before the step ended but not answered by then
	pass     bool
}

// score checks every answer of a step against its known answer and
// decides whether the step met the latency limit with no errors and no
// growing backlog.
func score(o *outcome, reqs []svcInput, got []sample, rate float64) stepResult {
	var r stepResult
	start, end := got[0].due, got[0].due.Add(time.Duration(float64(len(got))/rate*float64(time.Second)))
	last := start
	for j := range got {
		s := &got[j]
		o.attempted++
		lat := s.latencyMS()
		if s.done.After(last) {
			last = s.done
		}
		if s.done.After(end) && !s.due.After(end) {
			r.backlog++
		}
		r.lateMS = append(r.lateMS, ms(s.queued.Sub(s.due)))
		if s.err != nil {
			o.failed++
			r.errors++
			// A refused or failed request misses any latency limit.
			r.latMS = append(r.latMS, math.Max(lat, ms(svcLimit)*2))
			continue
		}
		r.latMS = append(r.latMS, lat)
		switch s.verdict {
		case "coherent":
			o.check(coherence.VerdictCoherent, reqs[j].coherent)
		case "incoherent":
			o.check(coherence.VerdictIncoherent, reqs[j].coherent)
		default:
			continue // undecided: shows in decided_frac
		}
		r.decided++
		r.ops += reqs[j].ops
		r.addrs += reqs[j].addrs
	}
	r.achieved = ratio(float64(r.decided), last.Sub(start).Seconds())
	// At the limit, rate x limit answers are legitimately outstanding at
	// any instant; more than that at the end of the step is a queue that
	// was still growing.
	allowed := int(math.Ceil(rate*svcLimit.Seconds())) + 1
	r.pass = r.errors == 0 && r.decided == len(got) &&
		quantile(r.latMS, 0.99) <= ms(svcLimit) && r.backlog <= allowed
	return r
}

// svcSteps sizes the plan: warm-up and per-step request counts.
func svcSteps(cfg config) (warm int, steps []int) {
	stepDur := cfg.duration() / time.Duration(len(svcRates))
	warmDur := svcWarmup
	if cfg.quick {
		warmDur /= 5
	}
	warm = max(1, int(svcWarmRate*warmDur.Seconds()))
	for _, r := range svcRates {
		steps = append(steps, max(1, int(r*stepDur.Seconds())))
	}
	return warm, steps
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func runService(ctx context.Context, cfg config) (*outcome, error) {
	nproc := runtime.NumCPU()
	warm, steps := svcSteps(cfg)
	if cfg.traced {
		// The traced run offers the middle rate twice, untraced then
		// traced, on distinct requests.
		mid := steps[len(steps)/2]
		steps = []int{mid, mid}
	}
	out := &outcome{rep: newReport()}

	var plan *svcPlan
	var srv *server
	var setups []float64
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	boots := svcBoots
	if cfg.traced {
		boots = 1
	}
	for b := 0; b < boots; b++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		p, err := svcGenerate(cfg.seed, warm, steps)
		if err != nil {
			return nil, err
		}
		gen := time.Since(t0)
		s, boot, err := startServer(ctx, cfg.memverifyd, nproc)
		if err != nil {
			return nil, err
		}
		plan, srv = p, s
		setups = append(setups, (gen + boot).Seconds())
	}
	if cfg.plantWrong {
		plan.steps[0][0].coherent = !plan.steps[0][0].coherent
	}

	client := newClient(nproc)
	defer client.CloseIdleConnections()
	score(out, plan.warm, loadStep(ctx, client, srv.url, plan.warm, svcWarmRate, nproc, nil, 0), svcWarmRate)

	if cfg.traced {
		return serviceTraced(ctx, out, srv, client, plan, nproc)
	}

	var results []stepResult
	for i, reqs := range plan.steps {
		results = append(results, score(out, reqs, loadStep(ctx, client, srv.url, reqs, svcRates[i], nproc, nil, 0), svcRates[i]))
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	mid := results[len(results)/2]
	maxOK := 0.0
	var decided, attempted int
	for _, r := range results {
		if r.pass {
			maxOK = r.achieved
		}
		decided += r.decided
		attempted += len(r.latMS)
	}
	midSecs := ratio(float64(mid.decided), mid.achieved)
	r := out.rep
	r.setQuantile("setup_s", "s", setups, 0.5)
	r.setQuantile("verdict_ms_p50", "ms", mid.latMS, 0.5)
	r.set("ops_per_s", "ops/s", ratio(float64(mid.ops), midSecs), len(mid.latMS))
	r.set("inputs_per_s", "1/s", mid.achieved, len(mid.latMS))
	r.set("decided_frac", "ratio", ratio(float64(decided), float64(attempted)), attempted)
	r.set("ok_frac", "ratio", ratio(float64(out.attempted-out.failed), float64(out.attempted)), out.attempted)
	r.set("peak_rss_mb", "MB", rss, 1)
	r.set("max_rate_ok", "req/s", maxOK, len(results))
	return out, nil
}

// serviceTraced offers the middle rate untraced and then traced, reads
// the server's stage histograms and counters for the traced step from
// /metrics, and then runs the traced step's traces through the layers
// in process.
func serviceTraced(ctx context.Context, out *outcome, srv *server, client *http.Client, plan *svcPlan, nproc int) (*outcome, error) {
	rate := svcRates[len(svcRates)/2]
	untraced := score(out, plan.steps[0], loadStep(ctx, client, srv.url, plan.steps[0], rate, nproc, nil, 0), rate)
	before, err := scrape(ctx, client, srv.url)
	if err != nil {
		return nil, err
	}
	out.tr = newTracer()
	reqs := plan.steps[1]
	traced := score(out, reqs, loadStep(ctx, client, srv.url, reqs, rate, nproc, out.tr, 1), rate)
	after, err := scrape(ctx, client, srv.url)
	if err != nil {
		return nil, err
	}

	r := out.rep
	delta := func(name string) float64 { return after[name] - before[name] }
	stage := func(st string, q float64) float64 {
		return after.stage(st).minus(before.stage(st)).quantileMS(q)
	}
	stageN := func(st string) int { return int(after.stage(st).minus(before.stage(st)).count()) }
	r.set("service.batched_frac", "ratio", ratio(delta("memverifyd_batched_solves_total"), float64(traced.addrs)), traced.decided)
	r.set("service.parse_ms_p50", "ms", stage("parse", 0.5), stageN("parse"))
	r.set("service.queue_ms_p99", "ms", stage("queue", 0.99), stageN("queue"))
	r.set("service.solve_ms_p50", "ms", stage("solve", 0.5), stageN("solve"))
	r.set("service.solve_ms_p99", "ms", stage("solve", 0.99), stageN("solve"))
	r.set("service.merge_ms_p50", "ms", stage("merge", 0.5), stageN("merge"))
	requests := delta("memverifyd_requests_total")
	r.set("service.cache_hit_frac", "ratio", ratio(delta("memverifyd_cache_hits_total"), requests), int(requests))
	r.set("service.shed", "count", delta("memverifyd_shed_total"), int(requests))
	r.set("service.degraded", "count", delta("memverifyd_degraded_total"), int(requests))
	r.setQuantile("loadgen.late_ms_p99", "ms", traced.lateMS, 0.99)
	r.setQuantile("verdict_ms_p90", "ms", untraced.latMS, 0.9)
	r.setQuantile("verdict_ms_p99", "ms", untraced.latMS, 0.99)
	p50u, p50t := quantile(untraced.latMS, 0.5), quantile(traced.latMS, 0.5)
	r.set("bench.trace_overhead_frac", "ratio", ratio(p50t-p50u, p50u), len(traced.latMS))

	if err := serviceLayers(ctx, out, reqs); err != nil {
		return nil, err
	}
	return out, nil
}

// serviceLayers runs the traced step's traces through the layers in
// process: ingest per request, the read-map specialist on every
// unique-write request's addresses, one SolveBatch over every small
// address, and the auto facade on the larger addresses, re-checking
// every ACCEPT's certificate.
func serviceLayers(ctx context.Context, out *outcome, reqs []svcInput) error {
	t := out.tr
	execs := make([]*memory.Execution, len(reqs))
	var jobs []coherence.BatchJob
	var jobReq []int
	type large struct {
		req  int
		addr memory.Addr
	}
	var larges []large
	verdicts := make([]coherence.ResilientVerdict, len(reqs))
	for i, in := range reqs {
		input := 1 + i
		s := t.begin("trace.Read", 0, input)
		tr, err := trace.Read(strings.NewReader(in.text))
		t.end(s)
		if err != nil {
			return err
		}
		exec := tr.Exec
		s = t.begin("memory.Validate", 0, input)
		err = exec.Validate()
		t.end(s)
		if err != nil {
			return err
		}
		execs[i] = exec
		verdicts[i] = coherence.VerdictCoherent
		for _, a := range exec.Addresses() {
			s = t.beginAlloc("memory.Project", 0, input)
			proj, _ := exec.Project(a)
			t.endAlloc(s)
			if in.unique {
				s = t.begin("specialist.SolveReadMap", 0, input)
				_, err := coherence.SolveReadMap(ctx, exec, a)
				t.end(s)
				if err != nil {
					return fmt.Errorf("read-map specialist: %w", err)
				}
			}
			if proj.NumMemoryOps() <= batchMaxOps {
				jobs = append(jobs, coherence.BatchJob{Exec: exec, Addr: a})
				jobReq = append(jobReq, i)
			} else {
				larges = append(larges, large{i, a})
			}
		}
	}

	v := coherence.NewVerifier()
	s := t.begin("batch.SolveBatch", 0, 0)
	t0 := time.Now()
	res := v.SolveBatch(ctx, jobs)
	batchDur := time.Since(t0)
	t.end(s)
	for j := range res {
		if res[j].Err != nil {
			return fmt.Errorf("SolveBatch job %d: %w", j, res[j].Err)
		}
		i := jobReq[j]
		ar := res[j].Report(jobs[j].Addr)
		if err := recheck(t, 0, 1+i, execs[i], ar); err != nil {
			out.fail(err)
		}
		verdicts[i] = worse(verdicts[i], ar.Verdict)
	}
	for _, l := range larges {
		s := t.begin("auto.SolveAddr", 0, 1+l.req)
		ar, err := v.SolveAddr(ctx, execs[l.req], l.addr)
		t.end(s)
		if err != nil {
			return err
		}
		if err := recheck(t, 0, 1+l.req, execs[l.req], ar); err != nil {
			out.fail(err)
		}
		verdicts[l.req] = worse(verdicts[l.req], ar.Verdict)
	}
	for i, in := range reqs {
		out.check(verdicts[i], in.coherent)
	}

	r := out.rep
	r.ingestLayers(t)
	r.setQuantile("specialist.readmap_ms", "ms", t.perInput("specialist.SolveReadMap", false), 0.5)
	r.set("batch.jobs_per_s", "jobs/s", ratio(float64(len(jobs)), batchDur.Seconds()), len(jobs))
	return nil
}

// promText is a parsed /metrics exposition: sample values by series.
type promText map[string]float64

// scrape reads the server's /metrics.
func scrape(ctx context.Context, client *http.Client, url string) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	p := promText{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics line %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, nil
}

// buckets is a cumulative histogram: upper bounds in seconds, ascending,
// with the cumulative count at each.
type buckets struct {
	le  []float64
	cum []float64
}

// stage returns the memverifyd_stage_duration_seconds buckets of one
// stage.
func (p promText) stage(st string) buckets {
	prefix := `memverifyd_stage_duration_seconds_bucket{stage="` + st + `",le="`
	var b buckets
	type kv struct{ le, n float64 }
	var all []kv
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		all = append(all, kv{le, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].le < all[j].le })
	for _, e := range all {
		b.le = append(b.le, e.le)
		b.cum = append(b.cum, e.n)
	}
	return b
}

// minus returns the histogram of observations made between two scrapes.
func (b buckets) minus(old buckets) buckets {
	out := buckets{le: b.le, cum: make([]float64, len(b.cum))}
	for i := range b.cum {
		out.cum[i] = b.cum[i]
		if i < len(old.cum) {
			out.cum[i] -= old.cum[i]
		}
	}
	return out
}

func (b buckets) count() float64 {
	if len(b.cum) == 0 {
		return 0
	}
	return b.cum[len(b.cum)-1]
}

// quantileMS estimates the q-quantile in milliseconds by linear
// interpolation inside the bucket that holds it.
func (b buckets) quantileMS(q float64) float64 {
	n := b.count()
	if n == 0 {
		return 0
	}
	target := q * n
	lo, prev := 0.0, 0.0
	for i, c := range b.cum {
		if c >= target {
			hi := b.le[i]
			if math.IsInf(hi, 1) {
				return lo * 1000
			}
			if c == prev {
				return hi * 1000
			}
			return (lo + (hi-lo)*(target-prev)/(c-prev)) * 1000
		}
		lo, prev = b.le[i], c
	}
	return lo * 1000
}
