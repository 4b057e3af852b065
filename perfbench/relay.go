package main

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"memverify/internal/coherence"
	"memverify/internal/solver"
	"memverify/internal/trace"
	"memverify/internal/workload"
)

// relay-1m: about 10^6 memory operations a round, split over a few
// workload.GenerateRelay traces, verified with StrategyFast by one
// caller. Ingest, projection, the fast path and certificate
// re-validation do all the work; the search does none.

// relayInput is one serialized relay trace and its known answer: the
// family is coherent by construction, and a phantom read (a value no
// write stores) makes it incoherent.
type relayInput struct {
	text     string
	ops      int
	coherent bool
}

// relayRound generates one round's traces. The seed picks each trace's
// width and decoy count and which trace carries the round's one phantom
// read; the number of relay rounds is sized so every trace has about the
// same operation count. A phantom trace is refuted about four times
// faster than a coherent one is accepted, so a fixed phantom share keeps
// the verdict-time percentiles from jumping between the two with the
// seed.
func relayRound(rng *rand.Rand, opsPerRound, traces int) []relayInput {
	out := make([]relayInput, traces)
	phantomAt := rng.Intn(traces)
	for i := range out {
		m := 3 + rng.Intn(4)
		decoys := 2 + rng.Intn(15)
		phantom := i == phantomAt
		rounds := opsPerRound / traces / (m * (decoys + 2))
		if rounds < 1 {
			rounds = 1
		}
		exec := workload.GenerateRelay(workload.RelayConfig{
			Processors: m, Rounds: rounds, Decoys: decoys, Phantom: phantom,
		})
		var b strings.Builder
		if err := trace.Write(&b, trace.New(exec)); err != nil {
			panic(err) // a strings.Builder does not fail
		}
		out[i] = relayInput{text: b.String(), ops: exec.NumMemoryOps(), coherent: !phantom}
	}
	return out
}

// relayVerdict is the untraced path: text to verdict through the public
// facade, exactly as a caller would do it.
func relayVerdict(ctx context.Context, v *coherence.Verifier, text string) (coherence.ResilientVerdict, error) {
	tr, err := trace.Read(strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	rep, err := v.Verify(ctx, tr.Exec)
	if err != nil {
		return 0, err
	}
	return rep.Verdict, nil
}

// relayTraced is the traced path: the same input, calling each layer's
// public function under its own span, and re-checking every ACCEPT's
// certificate with memory.CheckCoherent. It returns the verdict and
// whether every address was decided on the fast rung.
func relayTraced(ctx context.Context, t *tracer, v *coherence.Verifier, text string, input int) (coherence.ResilientVerdict, bool, error) {
	root := t.begin("input", 0, input)
	defer t.end(root)
	s := t.begin("trace.Read", root, input)
	tr, err := trace.Read(strings.NewReader(text))
	t.end(s)
	if err != nil {
		return 0, false, err
	}
	exec := tr.Exec
	s = t.begin("memory.Validate", root, input)
	err = exec.Validate()
	t.end(s)
	if err != nil {
		return 0, false, err
	}
	verdict, allFast := coherence.VerdictCoherent, true
	for _, a := range exec.Addresses() {
		s = t.beginAlloc("memory.Project", root, input)
		exec.Project(a)
		t.endAlloc(s)
		s = t.beginAlloc("fast.SolveAddr", root, input)
		ar, err := v.SolveAddr(ctx, exec, a)
		t.endAlloc(s)
		if err != nil {
			return 0, false, err
		}
		allFast = allFast && ar.Rung == coherence.RungFast
		if err := recheck(t, root, input, exec, ar); err != nil {
			return 0, false, err
		}
		verdict = worse(verdict, ar.Verdict)
	}
	return verdict, allFast, nil
}

func runRelay(ctx context.Context, cfg config) (*outcome, error) {
	opsPerRound, traces := 1_000_000, 4
	if cfg.quick {
		opsPerRound = 20_000
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	v := coherence.NewVerifier(solver.WithStrategy(solver.StrategyFast))
	out := &outcome{rep: newReport()}
	var setup, verdictMS, untracedMS, tracedMS []float64
	var ops, decided, fastDecided int
	var busy time.Duration
	if cfg.traced {
		out.tr = newTracer()
	}
	start := time.Now()
	for round := 0; ; round++ {
		// Each round's verification leaves hundreds of megabytes of
		// garbage. Collecting it first starts every set-up from the same
		// heap, so setup_s does not depend on where the collector's cycle
		// happened to be.
		runtime.GC()
		t0 := time.Now()
		batch := relayRound(rng, opsPerRound, traces)
		setup = append(setup, time.Since(t0).Seconds())
		if cfg.plantWrong && round == 0 {
			batch[0].coherent = !batch[0].coherent
		}
		for _, in := range batch {
			out.attempted++
			t0 := time.Now()
			verdict, err := relayVerdict(ctx, v, in.text)
			d := time.Since(t0)
			busy += d
			if err != nil {
				out.fail(err)
				continue
			}
			out.check(verdict, in.coherent)
			verdictMS = append(verdictMS, ms(d))
			ops += in.ops
			if verdict != coherence.VerdictUnknown {
				decided++
			}
			if !cfg.traced {
				continue
			}
			t0 = time.Now()
			tv, allFast, err := relayTraced(ctx, out.tr, v, in.text, out.attempted)
			if err != nil {
				out.fail(err)
				continue
			}
			out.check(tv, in.coherent)
			untracedMS = append(untracedMS, ms(d))
			tracedMS = append(tracedMS, ms(time.Since(t0)))
			if allFast {
				fastDecided++
			}
		}
		done := busy
		if cfg.traced {
			done = time.Since(start)
		}
		if done >= cfg.duration() {
			break
		}
	}

	r := out.rep
	if !cfg.traced {
		return out, r.closedLoop(out, setup, verdictMS, ops, decided, busy)
	}
	r.ingestLayers(out.tr)
	r.setQuantile("fast.solve_ms", "ms", out.tr.perInput("fast.SolveAddr", false), 0.5)
	r.setQuantile("fast.alloc_mb", "MB", out.tr.perInput("fast.SolveAddr", true), 0.5)
	r.set("fast.decided_frac", "ratio", ratio(float64(fastDecided), float64(len(tracedMS))), len(tracedMS))
	r.tracedTotals(untracedMS, tracedMS)
	return out, nil
}
