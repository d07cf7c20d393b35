package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestOpenLoopLatencyIncludesQueueingDelay is the coordinated-omission
// regression pin. An open-loop schedule issues one op per millisecond into
// an op body that takes ~5ms, so the runner falls ~4ms further behind
// schedule on every operation; honest open-loop latency runs from the
// *scheduled* arrival and must therefore grow with queue depth. The
// pre-fix engine timed the op body alone and reported a flat ~5ms
// regardless of the backlog — this test fails against that code.
func TestOpenLoopLatencyIncludesQueueingDelay(t *testing.T) {
	be := testBackend(t, 10)
	clk := newVirtualClock(1)
	res, err := Run(&Spec{
		Name:     "co",
		Backend:  be,
		Measured: 10,
		Think:    time.Millisecond,
		OpenLoop: true,
		Clock:    clk,
		Ops: []Op{{Name: "slow", Weight: 1, Run: func(*Ctx) (int, error) {
			clk.Sleep(5 * time.Millisecond)
			return 1, nil
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Op i is scheduled at i·1ms but starts after i·~5ms of predecessors:
	// latency ≈ 5ms + i·4ms of queueing delay, so the P95 of ten ops sits
	// above 30ms. A service-time-only measurement reports ~5ms flat.
	if p95 := res.P95(); p95 < 15000 {
		t.Fatalf("open-loop P95 = %.0fµs; queueing delay omitted (coordinated omission)", p95)
	}
	// The mean must also exceed the flat service time for the same reason.
	if mean := res.Total.Response.Mean(); mean < 8000 {
		t.Fatalf("open-loop mean = %.0fµs; queueing delay omitted", mean)
	}
	// On the virtual clock the backlog is exact: the last op waited 9·4ms.
	if max := res.Total.Response.Max(); max != 41000 {
		t.Fatalf("open-loop max latency = %.0fµs, want exactly 41000", max)
	}
}

// TestClosedLoopLatencyExcludesThink pins the complement: closed-loop
// latency is the op body alone — think-time sleeps never count.
func TestClosedLoopLatencyExcludesThink(t *testing.T) {
	be := testBackend(t, 10)
	res, err := Run(&Spec{
		Name:     "closed",
		Backend:  be,
		Measured: 5,
		Think:    3 * time.Millisecond,
		Clock:    newVirtualClock(1),
		Ops:      []Op{accessOp("x", be, 10, 1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p95 := res.P95(); p95 > 2000 {
		t.Fatalf("closed-loop P95 = %.0fµs includes think time", p95)
	}
	// The thinks themselves ran: five of them on the phase clock.
	if res.Duration != 15*time.Millisecond {
		t.Fatalf("closed-loop duration = %v, want exactly 15ms of think", res.Duration)
	}
}

// TestRateModePacesAcrossClients pins Rate semantics: the target is ops
// per second across *all* clients, so the same total rate stretches over
// the same clock time regardless of the client count.
func TestRateModePacesAcrossClients(t *testing.T) {
	for _, clients := range []int{1, 4} {
		be := testBackend(t, 10)
		perClient := 40 / clients
		clk := newVirtualClock(clients)
		res, err := Run(&Spec{
			Name:     "rate",
			Backend:  be,
			Clients:  clients,
			Measured: perClient,
			Rate:     2000,
			Clock:    clk,
			Ops:      []Op{leaveAfter(clk, clients, perClient, accessOp("x", be, 10, 1, 0))},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 40 {
			t.Fatalf("clients=%d: executed = %d", clients, res.Executed)
		}
		// 40 arrivals at 2000/s is 19.5ms of schedule either way: one
		// client's last arrival is 39 intervals of 500µs after its first;
		// four clients each arrive every 2ms, staggered 500µs apart, so
		// the last (client 3's tenth) lands at 1.5ms + 9·2ms.
		if res.Duration != 19500*time.Microsecond {
			t.Fatalf("clients=%d: rate run took %v, want exactly 19.5ms of schedule", clients, res.Duration)
		}
		// A fast op under a sustainable rate has tiny arrival-to-done
		// latency: the schedule waits, the op does not.
		if p95 := res.P95(); p95 > 5000 {
			t.Fatalf("clients=%d: rate-mode P95 = %.0fµs; on-schedule ops should be fast", clients, p95)
		}
	}
}

// signatureOf collapses a Result to its deterministic face: everything
// except wall-clock timing.
func signatureOf(res *Result) string {
	s := fmt.Sprintf("executed=%d total_objects=%d", res.Executed, res.Total.ObjectsTotal)
	for _, op := range res.PerOp {
		s += fmt.Sprintf(" %s:%d/%d/%d/%d", op.Name, op.Count, op.Skipped, op.Errors, op.ObjectsTotal)
	}
	return s
}

// TestStochasticPacingKeepsOpStreams is the seed-determinism golden for
// ThinkDist: the think draws come from dedicated per-client streams, so
// (1) two identical stochastic runs agree bit-for-bit on everything but
// timing, and (2) the op streams are *identical to the constant-Think
// run* — pacing shape never leaks into what the workload does. Pinned at
// CLIENTN 1 and 4. (The cross-backend leg — paged and btree through the
// full scenario layer — lives in internal/scenarios.)
func TestStochasticPacingKeepsOpStreams(t *testing.T) {
	for _, clients := range []int{1, 4} {
		for _, dist := range []string{"negexp:0.5", "selfsimilar", "uniform"} {
			run := func(thinkDist string) string {
				be := testBackend(t, 50)
				res, err := Run(&Spec{
					Name:      "stoch",
					Backend:   be,
					Clients:   clients,
					Measured:  200 / clients,
					Seed:      42,
					Think:     50 * time.Microsecond,
					ThinkDist: thinkDist,
					Ops:       []Op{accessOp("x", be, 50, 1, 0), accessOp("y", be, 50, 2, 0)},
				})
				if err != nil {
					t.Fatal(err)
				}
				return signatureOf(res)
			}
			a, b, constant := run(dist), run(dist), run("")
			if a != b {
				t.Fatalf("clients=%d dist=%s: stochastic pacing not deterministic:\n%s\n%s", clients, dist, a, b)
			}
			if a != constant {
				t.Fatalf("clients=%d dist=%s: op streams differ from constant-Think run:\n%s\n%s", clients, dist, a, constant)
			}
		}
	}
}

// TestStochasticRatePacing covers ThinkDist layered on a Rate target: the
// arrival gaps are drawn around the rate's interval, and the op stream
// still matches the unpaced run.
func TestStochasticRatePacing(t *testing.T) {
	var elapsed time.Duration
	run := func(rate float64, dist string) string {
		be := testBackend(t, 50)
		res, err := Run(&Spec{
			Name:      "stochrate",
			Backend:   be,
			Measured:  50,
			Seed:      9,
			Rate:      rate,
			ThinkDist: dist,
			Clock:     newVirtualClock(1),
			Ops:       []Op{accessOp("x", be, 50, 1, 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		elapsed = res.Duration
		return signatureOf(res)
	}
	stoch := run(5000, "negexp:0.5")
	if elapsed < 5*time.Millisecond {
		t.Fatalf("stochastic rate run finished in %v; gaps not applied", elapsed)
	}
	if unpaced := run(0, ""); stoch != unpaced {
		t.Fatalf("rate pacing changed the op stream:\n%s\n%s", stoch, unpaced)
	}
}

func TestPacingValidationErrors(t *testing.T) {
	be := testBackend(t, 1)
	run := func(*Ctx) (int, error) { return 1, nil }
	neg := -0.5
	cases := []*Spec{
		{Name: "negrate", Backend: be, Rate: -1, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "ratethink", Backend: be, Rate: 100, Think: time.Millisecond, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "baddist", Backend: be, Think: time.Millisecond, ThinkDist: "nosuchdist", Ops: []Op{{Name: "a", Run: run}}},
		{Name: "distnomean", Backend: be, ThinkDist: "negexp", Ops: []Op{{Name: "a", Run: run}}},
		{Name: "negslo", Backend: be, SLO: &SLO{SLOBound: SLOBound{P95Us: -1}}, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "badrate", Backend: be, SLO: &SLO{SLOBound: SLOBound{MaxErrorRate: &neg}}, Ops: []Op{{Name: "a", Run: run}}},
		{Name: "peroptput", Backend: be, SLO: &SLO{PerOp: map[string]SLOBound{"a": {MinOpsPerSec: 1}}}, Ops: []Op{{Name: "a", Run: run}}},
	}
	for _, spec := range cases {
		if _, err := Run(spec); err == nil {
			t.Fatalf("spec %q accepted", spec.Name)
		}
	}
}

// TestTolerateErrorsCountsNotAborts: under TolerateErrors a failing op
// becomes an Errors tick — excluded from Count, latency and throughput —
// and the run completes; without it the same failure aborts the run.
func TestTolerateErrorsCountsNotAborts(t *testing.T) {
	boom := errors.New("boom")
	be := testBackend(t, 10)
	calls := 0
	spec := &Spec{
		Name:           "tolerate",
		Backend:        be,
		Measured:       40,
		Seed:           5,
		TolerateErrors: true,
		Ops: []Op{{Name: "flaky", Weight: 1, Run: func(ctx *Ctx) (int, error) {
			calls++
			if calls%4 == 0 {
				return 0, boom
			}
			return 1, nil
		}}},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Errors != 10 {
		t.Fatalf("errors = %d, want 10", res.Total.Errors)
	}
	if res.Executed != 30 || res.Total.Count != 30 {
		t.Fatalf("executed = %d, want 30 successes only", res.Executed)
	}
	if got := res.ErrorRate(); got != 0.25 {
		t.Fatalf("error rate = %v, want 0.25", got)
	}
	// Same spec without tolerance: the first failure aborts.
	calls = 0
	spec.TolerateErrors = false
	if _, err := Run(spec); !errors.Is(err, boom) {
		t.Fatalf("intolerant run: err = %v, want boom", err)
	}
}
