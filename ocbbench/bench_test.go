package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// spec is the part of BENCHMARK.json the test checks the output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result is the benchmark's last output line.
type result struct {
	Correct   *bool
	Attempted *int64
	Failed    *int64
	Metrics   map[string]metric
}

// TestSmoke runs every workload of BENCHMARK.json at the tiny geometry,
// untraced and traced, through the command's own entry point: each run
// must pass its checks with nothing failed or skipped and print exactly
// the metrics, with the units, that BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := cli([]string{"--workload", w.Name, "--seed", "7", "--trace", trace, "-smoke",
					"-data", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if r.Correct == nil || !*r.Correct || r.Attempted == nil || *r.Attempted < 1 || r.Failed == nil || *r.Failed != 0 {
					t.Fatalf("result %s", lines[len(lines)-1])
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					var gotNames []string
					for n := range r.Metrics {
						gotNames = append(gotNames, n)
					}
					sort.Strings(gotNames)
					t.Errorf("printed metrics %v, want %v", gotNames, names)
				}
			})
		}
	}
}

// counts runs the cold phase and three warm rounds of ocb-paged-spill at
// the tiny geometry, traced or not.
func counts(t *testing.T, trace bool) (ops, objects int64, ios disk.Stats, calls int64) {
	t.Helper()
	w, err := lookup("ocb-paged-spill")
	if err != nil {
		t.Fatal(err)
	}
	c := &config{w: w, seed: 3, smoke: true, dataDir: t.TempDir()}
	var rec *recorder
	if trace {
		rec = newRecorder(w.clients)
	}
	e, _, err := setup(c, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	if _, err := e.cold(c); err != nil {
		t.Fatal(err)
	}
	ph := &phase{}
	for r := 0; r < 3; r++ {
		if err := e.round(c, r, ph, rec); err != nil {
			t.Fatal(err)
		}
	}
	if ph.errs+ph.skips != 0 {
		t.Fatalf("%d errors, %d skips: %v", ph.errs, ph.skips, ph.skipNotes)
	}
	if rec != nil {
		calls = rec.find(w.driver, "client").totalCalls()
	}
	return ph.ops, ph.objects, ph.ios, calls
}

// TestTracedCountsMatch checks that the decorator changes nothing the
// workload can see: at CLIENTN=1 a traced run of ocb-paged-spill executes
// the same ops, accesses the same objects and charges the same I/Os as an
// untraced one.
func TestTracedCountsMatch(t *testing.T) {
	ops, objects, ios, _ := counts(t, false)
	tops, tobjects, tios, calls := counts(t, true)
	if ops != tops || objects != tobjects || ios != tios {
		t.Fatalf("untraced ops=%d objects=%d ios=%+v; traced ops=%d objects=%d ios=%+v",
			ops, objects, ios, tops, tobjects, tios)
	}
	if calls == 0 {
		t.Fatal("the traced run recorded no driver calls")
	}
}

// TestMeasureRounds checks the warm phase's shape: exactly the rounds
// asked for, alternating untraced and traced with a recorder, and no
// more than one round once the time ceiling has passed.
func TestMeasureRounds(t *testing.T) {
	w, err := lookup("ocb-waldisk-rw")
	if err != nil {
		t.Fatal(err)
	}
	c := &config{w: w, seed: 2, smoke: true, dataDir: t.TempDir()}
	rec := newRecorder(w.clients)
	e, _, err := setup(c, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	plain, traced, err := e.measure(c, 3, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.rounds != 3 || traced != nil {
		t.Fatalf("untraced: %d rounds, traced phase %v; want 3 rounds and none", plain.rounds, traced)
	}
	var done []int
	plain, traced, err = e.measure(c, 4, 0, rec, func(n int) { done = append(done, n) })
	if err != nil {
		t.Fatal(err)
	}
	if plain.rounds != 2 || traced == nil || traced.rounds != 2 || len(done) != 4 {
		t.Fatalf("traced measure: %d untraced and %v traced rounds, callbacks %v; want 2, 2 and 4", plain.rounds, traced, done)
	}
	if rec.find(w.driver, "client").totalCalls() == 0 {
		t.Fatal("the traced rounds recorded no driver calls")
	}
	if plain, _, err = e.measure(c, 50, time.Nanosecond, nil, nil); err != nil || plain.rounds != 1 {
		t.Fatalf("past the ceiling: %d rounds (%v), want 1", plain.rounds, err)
	}
}

// caps lists the optional capabilities the workloads and wire.Server
// discover by type assertion.
func caps(b backend.Backend) [5]bool {
	_, c := b.(backend.IOClassifier)
	_, k := b.(backend.Checker)
	_, d := b.(backend.Durable)
	_, p := b.(backend.Placer)
	_, r := b.(backend.Ranger)
	return [5]bool{c, k, d, p, r}
}

// TestWrapForwardsCapabilities checks that the decorator exposes exactly
// the capabilities of each store the benchmark wraps, and that a
// reopened durable store is decorated again.
func TestWrapForwardsCapabilities(t *testing.T) {
	for _, name := range []string{"ocb-paged-spill", "ocb-waldisk-rw", "ocb-remote"} {
		t.Run(name, func(t *testing.T) {
			w, err := lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			c := &config{w: w, seed: 1, smoke: true, dataDir: t.TempDir()}
			rec := newRecorder(w.clients)
			e, _, err := setup(c, 0, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := e.close(); err != nil {
					t.Error(err)
				}
			}()
			raw := e.db.Store
			wrapped := wrap(raw, rec, w.driver, "client")
			if got, want := caps(wrapped), caps(raw); got != want {
				t.Fatalf("wrapped capabilities %v, store has %v (IOClassifier, Checker, Durable, Placer, Ranger)", got, want)
			}
			if err := backend.CheckIntegrity(wrapped); err != nil {
				t.Fatal(err)
			}
			d, ok := wrapped.(backend.Durable)
			if !ok {
				return
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			nb, err := d.Reopen()
			if err != nil {
				t.Fatal(err)
			}
			e.db.Store = nb
			if _, ok := nb.(tracedDurable); !ok {
				t.Fatalf("reopened store is %T, want the decorator", nb)
			}
		})
	}
}

// TestGateFails checks that the correctness gate catches a failed op and
// an object the store lost behind the database's back.
func TestGateFails(t *testing.T) {
	w, err := lookup("ocb-paged-spill")
	if err != nil {
		t.Fatal(err)
	}
	c := &config{w: w, seed: 1, smoke: true, dataDir: t.TempDir()}
	e, _, err := setup(c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	failed := func(cks []check) []string {
		var names []string
		for _, ck := range cks {
			if !ck.OK {
				names = append(names, ck.Name)
			}
		}
		return names
	}
	if f := failed(e.gate(c, &phase{})); len(f) != 0 {
		t.Fatalf("fresh database fails %v", f)
	}
	if f := failed(e.gate(c, &phase{errs: 1})); len(f) != 1 || f[0] != "no_failures" {
		t.Fatalf("one failed op: failing checks %v, want [no_failures]", f)
	}
	if err := e.db.Store.Delete(5); err != nil {
		t.Fatal(err)
	}
	if f := failed(e.gate(c, &phase{})); len(f) != 1 || f[0] != "database" {
		t.Fatalf("object deleted from the store: failing checks %v, want [database]", f)
	}
}
