package exp

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
	"ocb/internal/workload"
)

// scalabilityClients is the client sweep of the scalability experiment:
// powers of two through 16, the region where the paper's era-hardware
// arguments about multi-user mode play out.
var scalabilityClients = []int{1, 2, 4, 8, 16}

// Scalability runs the multi-client scalability sweep over one shared
// sharded store: CLIENTN in {1, 2, 4, 8, 16}, closed-loop think time, same
// per-client transaction streams at every point. It reports throughput,
// speedup versus one client and response-time quantiles — the harness the
// tentpole concurrency work is judged by. Unlike the A3 ablation (which
// reshards per row to each client count's default store), every row here
// runs on one store geometry, so the only variable is concurrency.
func Scalability(c Config) (*report.Table, error) {
	p := scalabilityParams(c)
	txPerClient := 200
	think := 2 * time.Millisecond
	if c.Quick {
		txPerClient = 50
	}
	db, err := core.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	defer backend.Shutdown(db.Store)
	// Twice the largest client count, so multi-client points do not
	// serialize on shard locks.
	shards := 2 * scalabilityClients[len(scalabilityClients)-1]
	pts, err := sweepClients(db, scalabilityClients, txPerClient, 8191+c.Seed, think,
		func(int) int { return shards })
	if err != nil {
		return nil, fmt.Errorf("scalability: %w", err)
	}
	// Cite the degree actually in effect: the store may round the request,
	// and backends that do not shard run as they are.
	shards = 1
	if rel, ok := db.Store.(backend.Resharder); ok {
		shards = rel.Shards()
	}
	t := report.New("Scalability — CLIENTN sweep over one sharded store",
		"Clients", "Transactions", "Wall time", "Tx/s", "Speedup",
		"Mean I/Os per tx", "p50 µs", "p95 µs", "p99 µs")
	for _, pt := range pts {
		r := pt.Result
		t.AddRow(report.Int(pt.Clients), report.I64(r.Executed),
			report.Dur(r.Duration), report.F1(r.Throughput),
			report.F2(r.Throughput/pts[0].Result.Throughput),
			report.F1(r.MeanIOsPerOp()),
			report.F1(r.P50()), report.F1(r.P95()), report.F1(r.P99()))
	}
	t.AddNote("shared database, %d store shards, %s closed-loop think time per tx",
		shards, think)
	t.AddNote("identical per-client streams at every point; speedup is tx/s vs 1 client")
	return t, nil
}

// sweepClients runs one OCB phase of txPerClient transactions per client
// at each client count over db's store. Before every point the store is
// resharded to shards(clients) — on backends that shard — and its cache
// dropped, so each row starts cold from the same placement and replays
// the same per-client streams.
func sweepClients(db *core.Database, clients []int, txPerClient int, seed int64,
	think time.Duration, shards func(clients int) int) ([]workload.SweepPoint, error) {
	spec := core.NewRunner(db, nil).PhaseSpec("clients", txPerClient, seed)
	spec.Think = think
	return workload.Sweep(spec, workload.SweepOptions{
		Clients: clients,
		Reset: func(n int, _ float64) error {
			if rel, ok := db.Store.(backend.Resharder); ok {
				if err := rel.Reshard(shards(n)); err != nil {
					return err
				}
			}
			db.Store.DropCache()
			return nil
		},
	})
}

// scalabilityParams is the sweep geometry: the Table 3 database with the
// default four-type workload mix (the same recipe as the A3 ablation).
func scalabilityParams(c Config) core.Params {
	p := c.mimicParams()
	d := core.DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = d.PSet, d.PSimple, d.PHier, d.PStoch
	p.SetDepth, p.SimDepth, p.HieDepth, p.StoDepth = d.SetDepth, d.SimDepth, d.HieDepth, d.StoDepth
	return p
}
