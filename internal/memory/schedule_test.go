package memory

import (
	"strings"
	"testing"
)

// ref is a test helper for building schedules tersely.
func ref(p, i int) Ref { return Ref{Proc: p, Index: i} }

func TestCheckCoherentAcceptsValidSchedule(t *testing.T) {
	// P0: W(1) R(2)   P1: W(2)
	e := NewExecution(
		History{W(0, 1), R(0, 2)},
		History{W(0, 2)},
	)
	s := Schedule{ref(0, 0), ref(1, 0), ref(0, 1)}
	if err := CheckCoherent(e, 0, s); err != nil {
		t.Errorf("valid coherent schedule rejected: %v", err)
	}
}

func TestCheckCoherentRejectsWrongValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 2)},
		History{W(0, 2)},
	)
	// Schedule the read right after W(1): it returns 2, mismatch.
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0)}
	if err := CheckCoherent(e, 0, s); err == nil {
		t.Error("incoherent schedule accepted")
	}
}

func TestCheckCoherentInitialValue(t *testing.T) {
	e := NewExecution(
		History{R(0, 5), W(0, 1)},
	).SetInitial(0, 5)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1)}); err != nil {
		t.Errorf("read of initial value rejected: %v", err)
	}

	bad := NewExecution(
		History{R(0, 6), W(0, 1)},
	).SetInitial(0, 5)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("read disagreeing with initial value accepted")
	}
}

func TestCheckCoherentUnboundInitialBinds(t *testing.T) {
	// No declared initial value: the first pre-write read binds it, and a
	// second pre-write read must agree.
	e := NewExecution(
		History{R(0, 7)},
		History{R(0, 7)},
	)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("consistent pre-write reads rejected: %v", err)
	}
	disagree := NewExecution(
		History{R(0, 7)},
		History{R(0, 8)},
	)
	if err := CheckCoherent(disagree, 0, Schedule{ref(0, 0), ref(1, 0)}); err == nil {
		t.Error("disagreeing pre-write reads accepted without any write")
	}
}

func TestCheckCoherentFinalValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(0, 2)},
	).SetFinal(0, 2)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1)}); err != nil {
		t.Errorf("schedule ending on final value rejected: %v", err)
	}

	bad := NewExecution(
		History{W(0, 2), W(0, 1)},
	).SetFinal(0, 2)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("schedule whose last write is not the final value accepted")
	}
}

func TestCheckCoherentFinalWithoutWrites(t *testing.T) {
	e := NewExecution(
		History{R(0, 3)},
	).SetInitial(0, 3).SetFinal(0, 3)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0)}); err != nil {
		t.Errorf("write-free schedule with matching initial/final rejected: %v", err)
	}
	bad := NewExecution(
		History{R(0, 3)},
	).SetInitial(0, 3).SetFinal(0, 4)
	if err := CheckCoherent(bad, 0, Schedule{ref(0, 0)}); err == nil {
		t.Error("write-free schedule with mismatched final value accepted")
	}
}

func TestCheckCoherentProgramOrder(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(0, 2)},
	)
	s := Schedule{ref(0, 1), ref(0, 0)}
	if err := CheckCoherent(e, 0, s); err == nil {
		t.Error("program-order violation accepted")
	}
}

func TestCheckCoherentCompleteness(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 1)},
	)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0)}); err == nil {
		t.Error("incomplete schedule accepted")
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 0), ref(0, 1)}); err == nil {
		t.Error("duplicate operation accepted")
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1), ref(5, 0)}); err == nil {
		t.Error("out-of-range reference accepted")
	}
}

func TestCheckCoherentIgnoresOtherAddresses(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 9), R(0, 1)},
	)
	// Address 0 schedule must not include the W(1,9) op.
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 2)}); err != nil {
		t.Errorf("per-address schedule rejected: %v", err)
	}
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(0, 1), ref(0, 2)}); err == nil {
		t.Error("schedule containing another address's op accepted")
	}
}

func TestCheckCoherentRMW(t *testing.T) {
	e := NewExecution(
		History{RW(0, 0, 1)},
		History{RW(0, 1, 2)},
	).SetInitial(0, 0)
	if err := CheckCoherent(e, 0, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("valid RMW chain rejected: %v", err)
	}
	if err := CheckCoherent(e, 0, Schedule{ref(1, 0), ref(0, 0)}); err == nil {
		t.Error("broken RMW chain accepted")
	}
}

func TestCheckSCAcceptsValidSchedule(t *testing.T) {
	// Classic message passing, SC outcome.
	e := NewExecution(
		History{W(0, 1), W(1, 1)},
		History{R(1, 1), R(0, 1)},
	).SetInitial(0, 0).SetInitial(1, 0)
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0), ref(1, 1)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("valid SC schedule rejected: %v", err)
	}
}

func TestCheckSCRejectsWrongValue(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 1)},
		History{R(1, 1), R(0, 0)},
	).SetInitial(0, 0).SetInitial(1, 0)
	// R(0,0) after W(0,1): 0 != 1 under every interleaving consistent
	// with this order; this particular schedule must be rejected.
	s := Schedule{ref(0, 0), ref(0, 1), ref(1, 0), ref(1, 1)}
	if err := CheckSC(e, s); err == nil {
		t.Error("non-SC schedule accepted")
	}
}

func TestCheckSCTracksAddressesIndependently(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), W(1, 2), R(0, 1), R(1, 2)},
	)
	s := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(0, 3)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("multi-address schedule rejected: %v", err)
	}
}

func TestCheckSCSyncOpsOptional(t *testing.T) {
	e := NewExecution(
		History{Acq(), W(0, 1), Rel()},
		History{R(0, 1)},
	)
	// Schedule omitting the sync ops is fine.
	if err := CheckSC(e, Schedule{ref(0, 1), ref(1, 0)}); err != nil {
		t.Errorf("schedule without sync ops rejected: %v", err)
	}
	// Including them is fine too.
	full := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(1, 0)}
	if err := CheckSC(e, full); err != nil {
		t.Errorf("schedule with sync ops rejected: %v", err)
	}
	// But a memory op may not be omitted.
	if err := CheckSC(e, Schedule{ref(0, 1)}); err == nil {
		t.Error("schedule missing a memory op accepted")
	}
	// And sync ops must still respect program order.
	bad := Schedule{ref(0, 2), ref(0, 1), ref(0, 0), ref(1, 0)}
	if err := CheckSC(e, bad); err == nil {
		t.Error("sync ops violating program order accepted")
	}
}

func TestCheckSCFinalValues(t *testing.T) {
	e := NewExecution(
		History{W(0, 1)},
		History{W(0, 2)},
	).SetFinal(0, 2)
	if err := CheckSC(e, Schedule{ref(0, 0), ref(1, 0)}); err != nil {
		t.Errorf("schedule ending on final value rejected: %v", err)
	}
	if err := CheckSC(e, Schedule{ref(1, 0), ref(0, 0)}); err == nil {
		t.Error("schedule ending on non-final value accepted")
	}
}

func TestScheduleFormat(t *testing.T) {
	e := NewExecution(History{W(0, 1), R(0, 1)})
	s := Schedule{ref(0, 0), ref(0, 1)}
	got := s.Format(e)
	if !strings.Contains(got, "W(0, 1)") || !strings.Contains(got, "->") {
		t.Errorf("Format = %q", got)
	}
}

func TestCheckSCUnboundInitial(t *testing.T) {
	// No initial values: the first read of each address binds it.
	e := NewExecution(
		History{R(0, 42), R(0, 42), W(0, 1), R(0, 1)},
	)
	s := Schedule{ref(0, 0), ref(0, 1), ref(0, 2), ref(0, 3)}
	if err := CheckSC(e, s); err != nil {
		t.Errorf("binding initial read rejected: %v", err)
	}
}

// TestCheckCoverageMissingIsDeterministic: a schedule missing several
// operations is reported missing the lowest (process, index) one, on
// every call.
func TestCheckCoverageMissingIsDeterministic(t *testing.T) {
	e := NewExecution(
		History{W(0, 1), R(0, 1), W(0, 2)},
		History{R(0, 2), W(0, 3)},
	)
	s := Schedule{ref(0, 0), ref(0, 2), ref(1, 0)} // misses P0[1] and P1[1]
	first := CheckCoherent(e, 0, s)
	if first == nil || !strings.Contains(first.Error(), "missing operation P0[1]") {
		t.Fatalf("CheckCoherent = %v, want the missing P0[1] reported", first)
	}
	for i := 0; i < 20; i++ {
		if err := CheckCoherent(e, 0, s); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, want %v", i, err, first)
		}
		if err := CheckSC(e, s); err == nil || err.Error() != first.Error() {
			t.Fatalf("CheckSC call %d: %v, want %v", i, err, first)
		}
	}
}
