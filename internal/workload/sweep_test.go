package workload

import (
	"testing"
	"time"
)

func TestSweepVisitsGridInOrder(t *testing.T) {
	be := testBackend(t, 20)
	spec := &Spec{
		Name:     "grid",
		Backend:  be,
		Measured: 8,
		Seed:     4,
		SLO:      &SLO{SLOBound: SLOBound{MinOpsPerSec: 1e12}}, // unreachable: every point violates
		Ops:      []Op{accessOp("x", be, 20, 1, 0)},
	}
	var resets []int
	points, err := Sweep(spec, SweepOptions{
		Clients: []int{1, 2},
		Rates:   []float64{4000, 8000},
		Reset: func(clients int, rate float64) error {
			resets = append(resets, clients)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	want := []struct {
		clients int
		rate    float64
	}{{1, 4000}, {1, 8000}, {2, 4000}, {2, 8000}}
	for i, pt := range points {
		if pt.Clients != want[i].clients || pt.Rate != want[i].rate {
			t.Fatalf("point %d = (%d, %g), want (%d, %g)", i, pt.Clients, pt.Rate, want[i].clients, want[i].rate)
		}
		if pt.Result.Clients != want[i].clients {
			t.Fatalf("point %d result ran %d clients", i, pt.Result.Clients)
		}
		if pt.Result.Executed != int64(want[i].clients*8) {
			t.Fatalf("point %d executed %d", i, pt.Result.Executed)
		}
		if len(pt.Violations) == 0 {
			t.Fatalf("point %d: unreachable throughput floor not violated", i)
		}
	}
	if len(resets) != 4 {
		t.Fatalf("reset ran %d times, want 4", len(resets))
	}
	// The caller's spec is never mutated by the grid.
	if spec.Clients != 0 || spec.Rate != 0 {
		t.Fatalf("sweep mutated the spec: clients=%d rate=%g", spec.Clients, spec.Rate)
	}
}

func TestSweepDefaultsToSpecLoad(t *testing.T) {
	be := testBackend(t, 20)
	points, err := Sweep(&Spec{
		Name: "defaults", Backend: be, Clients: 2, Measured: 5, Seed: 1,
		Ops: []Op{accessOp("x", be, 20, 1, 0)},
	}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Clients != 2 || points[0].Rate != 0 {
		t.Fatalf("points = %+v, want one (2 clients, rate 0)", points)
	}
	if len(points[0].Violations) != 0 {
		t.Fatalf("no SLO declared but violations = %v", points[0].Violations)
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	be := testBackend(t, 5)
	spec := &Spec{Name: "bad", Backend: be, Measured: 1, Ops: []Op{accessOp("x", be, 5, 1, 0)}}
	if _, err := Sweep(spec, SweepOptions{Clients: []int{0}}); err == nil {
		t.Fatal("client count 0 accepted")
	}
	if _, err := Sweep(spec, SweepOptions{Rates: []float64{-5}}); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// kneeSpec builds a spec whose single op takes exactly `service` of
// virtual time per call on one client: a synthetic system with a
// programmable latency knee at 1/service ops/sec. Below the knee
// open-loop latency is service; above it arrivals queue faster than they
// drain, latency grows without bound and achieved throughput caps at the
// knee.
func kneeSpec(t *testing.T, service time.Duration, measured int) *Spec {
	t.Helper()
	be := testBackend(t, 5)
	clk := newVirtualClock(1)
	return &Spec{
		Name:     "knee",
		Backend:  be,
		Measured: measured,
		Seed:     8,
		Clock:    clk,
		Ops: []Op{{Name: "serve", Weight: 1, Run: func(*Ctx) (int, error) {
			clk.Sleep(service)
			return 1, nil
		}}},
	}
}

func TestFindMaxRate(t *testing.T) {
	cases := []struct {
		name     string
		service  time.Duration
		measured int
		search   RateSearch
		// wantMin/wantMax bracket the acceptable reported capacity;
		// wantProbes caps the probe count (0 = just MaxProbes).
		wantMin, wantMax float64
		wantProbes       int
	}{
		{
			// The knee (1/2ms = 500 ops/s) sits inside the bracket: the
			// search must converge near it and never report past it. The
			// sustained-throughput criterion is what pins the ceiling —
			// above the knee the system completes ~500/s no matter the
			// target, failing SustainedFrac long before a 25-op P95
			// sample could.
			name:     "knee inside bracket",
			service:  2 * time.Millisecond,
			measured: 25,
			search:   RateSearch{P95BoundUs: 5000, MinRate: 100, MaxRate: 2000, Tolerance: 0.3, MaxProbes: 8},
			wantMin:  100, wantMax: 700,
		},
		{
			// Even the floor is past the knee (1/20ms = 50 ops/s): the
			// search reports zero after one probe, not a guess.
			name:     "floor fails",
			service:  20 * time.Millisecond,
			measured: 10,
			search:   RateSearch{P95BoundUs: 25000, MinRate: 200, MaxRate: 1000},
			wantMin:  0, wantMax: 0,
			wantProbes: 1,
		},
		{
			// The whole bracket is under the knee (1/100µs = 10000 ops/s):
			// the ceiling passes and is the answer after two probes.
			name:     "ceiling passes",
			service:  100 * time.Microsecond,
			measured: 20,
			search:   RateSearch{P95BoundUs: 20000, MinRate: 100, MaxRate: 1000},
			wantMin:  1000, wantMax: 1000,
			wantProbes: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := FindMaxRate(kneeSpec(t, tc.service, tc.measured), tc.search)
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxRate < tc.wantMin || res.MaxRate > tc.wantMax {
				t.Fatalf("MaxRate = %g, want in [%g, %g]", res.MaxRate, tc.wantMin, tc.wantMax)
			}
			maxProbes := tc.search.MaxProbes
			if maxProbes == 0 {
				maxProbes = 12
			}
			if tc.wantProbes > 0 {
				maxProbes = tc.wantProbes
			}
			if len(res.Probes) > maxProbes {
				t.Fatalf("probes = %d, want <= %d", len(res.Probes), maxProbes)
			}
			// The answer is always a measured passing probe, never an
			// extrapolation: zero, or the rate of some probe that passed.
			if res.MaxRate != 0 {
				found := false
				for _, p := range res.Probes {
					if p.Pass && p.Rate == res.MaxRate {
						found = true
					}
					if !p.Pass && p.Rate <= res.MaxRate {
						t.Fatalf("probe at %g failed yet MaxRate = %g reported above it", p.Rate, res.MaxRate)
					}
				}
				if !found {
					t.Fatalf("MaxRate %g was never measured as passing", res.MaxRate)
				}
			}
		})
	}
}

func TestFindMaxRateValidation(t *testing.T) {
	spec := kneeSpec(t, time.Microsecond, 5)
	if _, err := FindMaxRate(spec, RateSearch{MaxRate: 100}); err == nil {
		t.Fatal("missing P95 bound accepted")
	}
	if _, err := FindMaxRate(spec, RateSearch{P95BoundUs: 100}); err == nil {
		t.Fatal("missing MaxRate accepted")
	}
	if _, err := FindMaxRate(spec, RateSearch{P95BoundUs: 100, MinRate: 500, MaxRate: 100}); err == nil {
		t.Fatal("inverted bracket accepted")
	}
	prog := kneeSpec(t, time.Microsecond, 5)
	prog.Measured = 0
	prog.Ops[0].Count = 5
	if _, err := FindMaxRate(prog, RateSearch{P95BoundUs: 100, MaxRate: 100}); err == nil {
		t.Fatal("fixed-program spec accepted")
	}
}
