// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Section 4), plus the ablations DESIGN.md
// catalogs. The cmd/ocb-experiments tool and the root benchmark suite are
// thin wrappers around this package.
//
// Every experiment honours a Config with a Quick switch that scales the
// geometry down (for CI and testing.B) while preserving the regime each
// result depends on: reference windows spanning several pages and buffers
// smaller than the database. Full-scale runs reproduce the paper's setup:
// 20000-object databases over 4 KB pages with a memory budget around 40%
// of the database, mirroring the 8 MB RAM / ~15 MB database testbed.
package exp

import (
	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/core"
	"ocb/internal/dstc"
	"ocb/internal/oo1"
)

// Config selects the experiment scale and the system under test.
type Config struct {
	// Quick shrinks every experiment to seconds for tests and benches.
	Quick bool
	// Seed offsets all experiment seeds (0 keeps the defaults).
	Seed int64
	// Backend selects the system-under-test driver ("" = "paged").
	// Experiments needing a capability the backend lacks (physical
	// relocation, mostly) fail with backend.ErrNotSupported, which
	// cmd/ocb-experiments reports as a skip.
	Backend string
	// BackendOptions are driver-specific key=value settings, validated by
	// the driver at open.
	BackendOptions map[string]string
}

// backendName returns the effective driver name ("" opens the default).
func (c Config) backendName() string {
	if c.Backend == "" {
		return backend.DefaultName
	}
	return c.Backend
}

// clubOO1Params returns the OO1 geometry behind the Table 4 CluB row.
func (c Config) clubOO1Params() oo1.Params {
	p := oo1.DefaultParams()
	p.BufferPages = 512
	if c.Quick {
		p.NumParts = 8000
		p.RefZone = 160
		p.TraversalDepth = 5
		p.BufferPages = 64
	}
	p.Seed += c.Seed
	p.Backend = c.Backend
	p.BackendOptions = c.BackendOptions
	return p
}

// mimicParams returns the OCB Table 3 parameterization used by the Table 4
// OCB row and, with the default workload mix, by Table 5.
func (c Config) mimicParams() core.Params {
	p := core.CluBParams()
	// 40% of the ~440-page database, the paper's memory-pressure ratio.
	p.BufferPages = 176
	if c.Quick {
		p.NO = 6000
		p.SupRef = 6000
		p.BufferPages = 52
	}
	p.Seed += c.Seed
	p.Backend = c.Backend
	p.BackendOptions = c.BackendOptions
	return p
}

// clubDSTC returns the DSTC tuning for the clustering experiments: one
// observation period spanning the whole observation phase, the standard
// selection/clustering thresholds, units of up to 16 pages.
func clubDSTC() *dstc.DSTC {
	return dstc.New(dstc.Params{
		ObservationPeriod: 1 << 30,
		Tfa:               2,
		Tfc:               2,
		MaxUnitBytes:      1 << 16,
	})
}

// heldOut runs the OCB measurement protocol: the policy observes reps
// workload phases drawn from fresh seeds, the database is reorganized,
// and mean I/Os per transaction are measured on a held-out seed before
// and after — so the policy is never shown the measured transactions.
type heldOutResult struct {
	Before, After float64
	Gain          float64
	Reloc         backend.RelocStats
	ClusteringIOs uint64
}

func heldOut(db *core.Database, policy cluster.Policy, obsN, measN, reps int, seed int64) (heldOutResult, error) {
	var res heldOutResult
	measure := core.NewRunner(db, nil)
	observe := core.NewRunner(db, policy)

	db.Store.DropCache()
	before, err := measure.RunPhase("before", measN, seed)
	if err != nil {
		return res, err
	}
	for rep := 0; rep < reps; rep++ {
		db.Store.DropCache()
		if _, err := observe.RunPhase("observe", obsN, seed+1000+int64(rep)); err != nil {
			return res, err
		}
	}
	clBefore := db.Store.Stats().Disk.ClusteringIOs()
	res.Reloc, err = observe.Reorganize()
	if err != nil {
		return res, err
	}
	res.ClusteringIOs = db.Store.Stats().Disk.ClusteringIOs() - clBefore
	db.Store.DropCache()
	after, err := measure.RunPhase("after", measN, seed)
	if err != nil {
		return res, err
	}
	res.Before = before.MeanIOsPerOp()
	res.After = after.MeanIOsPerOp()
	if res.After > 0 {
		res.Gain = res.Before / res.After
	}
	return res, nil
}

// replay runs the stereotyped protocol DSTC-CluB uses: the policy observes
// reps passes of one fixed workload (same seed), the database is
// reorganized, and the same workload replays for the after measurement.
func replay(db *core.Database, policy cluster.Policy, n, reps int, seed int64) (heldOutResult, error) {
	var res heldOutResult
	observe := core.NewRunner(db, policy)
	measure := core.NewRunner(db, nil)

	for rep := 0; rep < reps; rep++ {
		db.Store.DropCache()
		m, err := observe.RunPhase("observe", n, seed)
		if err != nil {
			return res, err
		}
		if rep == 0 {
			res.Before = m.MeanIOsPerOp()
		}
	}
	clBefore := db.Store.Stats().Disk.ClusteringIOs()
	reloc, err := observe.Reorganize()
	if err != nil {
		return res, err
	}
	res.Reloc = reloc
	res.ClusteringIOs = db.Store.Stats().Disk.ClusteringIOs() - clBefore
	db.Store.DropCache()
	m, err := measure.RunPhase("after", n, seed)
	if err != nil {
		return res, err
	}
	res.After = m.MeanIOsPerOp()
	if res.After > 0 {
		res.Gain = res.Before / res.After
	}
	return res, nil
}
