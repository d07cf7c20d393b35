// Multiuser demonstrates OCB's multi-client mode (CLIENTN, Section 3.1 —
// "almost unique" among the era's benchmarks) through the scalability
// sweep: several concurrent clients share one store and buffer, and the
// sharded store lets their transactions proceed in parallel instead of
// serializing on a global mutex. Each client pauses for a think time
// between transactions, as the paper's THINK parameter models interactive
// users; throughput therefore scales with the client count until either
// the store or the CPUs saturate.
package main

import (
	_ "ocb/internal/backend/all"

	"fmt"
	"log"
	"time"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/workload"
)

func main() {
	// Quick geometry: a 5000-object database under cache pressure.
	p := core.DefaultParams()
	p.NO = 5000
	p.SupRef = 5000
	p.BufferPages = 96

	db, err := core.Generate(p)
	if err != nil {
		log.Fatal(err)
	}

	// Shard the store for the largest client count (twice it, so clients
	// rarely meet on a shard lock), then sweep CLIENTN over the OCB phase:
	// the same per-client transaction streams at every point, each point
	// from a cold cache.
	shards := 1
	if rel, ok := db.Store.(backend.Resharder); ok {
		if err := rel.Reshard(32); err != nil {
			log.Fatal(err)
		}
		shards = rel.Shards()
	}
	spec := core.NewRunner(db, nil).PhaseSpec("multiuser", 50, 2024)
	spec.Think = 2 * time.Millisecond // interactive clients (THINK)
	pts, err := workload.Sweep(spec, workload.SweepOptions{
		Clients: []int{1, 2, 4, 8, 16},
		Reset: func(int, float64) error {
			db.Store.DropCache()
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("clients  tx     wall      tx/s    speedup  mean I/Os  p95 µs")
	fmt.Println("--------------------------------------------------------------")
	for _, pt := range pts {
		r := pt.Result
		fmt.Printf("%6d  %4d  %8s  %7.0f  %6.2fx  %9.1f  %6.0f\n",
			pt.Clients, r.Executed, r.Duration.Round(time.Millisecond),
			r.Throughput, r.Throughput/pts[0].Result.Throughput, r.MeanIOsPerOp(), r.P95())
	}
	fmt.Printf("\nstore shards: %d; identical per-client transaction streams at\n", shards)
	fmt.Println("every point, cold cache per point. Per-transaction I/O attribution")
	fmt.Println("is approximate with concurrent clients; phase totals stay exact")
	fmt.Println("(see the workload.Result docs).")
}
