package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocb/internal/backend"
	_ "ocb/internal/backend/all"
	"ocb/internal/buffer"
	"ocb/internal/core"
	"ocb/internal/disk"
	"ocb/internal/wire"
	"ocb/internal/workload"
)

// wl is one benchmark workload: a database geometry, a driver, a mix and
// a client count. Every workload is OCB's own generator and transaction
// sampler, driven closed-loop with zero THINK.
type wl struct {
	name string
	// driver is the backend the clients open: paged, waldisk, or remote
	// (which talks to an in-process wire.Server hosting waldisk).
	driver  string
	clients int
	// generic selects the §5 mix (set, simple, hierarchy and stochastic
	// at weight 1, update 2, insert 1, delete 1) instead of Table 2's
	// read mix.
	generic bool
	// cachePages sizes the waldisk read cache (the served store's on
	// remote); 0 leaves the driver default.
	cachePages int
	// coldN is the cold phase's transactions per client; roundN is one
	// measured round's.
	coldN, roundN int
	// roundsPerSec sets the measured work: a run of --seconds S measures
	// ceil(S × roundsPerSec) rounds, so the ops measured do not depend on
	// the machine's speed. It is sized so that a 2-vCPU machine running at
	// about 60% of the speed this benchmark was tuned at still finishes
	// in S seconds; S is also a ceiling.
	roundsPerSec float64
}

// workloads are the benchmark's three workloads; BENCHMARK.json and
// README.md say why each exists.
var workloads = []wl{
	{
		// The paper's own experiment: the working set is about 8x the
		// 512-frame pool, and only traversal, buffer.Sharded and the
		// simulated disk work.
		name:    "ocb-paged-spill",
		driver:  "paged",
		clients: 1,
		coldN:   1000, roundN: 1000,
		// About 4,000 ops/s, 4 rounds per second.
		roundsPerSec: 2.5,
	},
	{
		// Group commit batches only when two committers run at once; the
		// cache holds the whole database, so reads are cheap and commit,
		// fsync and compaction show.
		name:       "ocb-waldisk-rw",
		driver:     "waldisk",
		clients:    2,
		generic:    true,
		cachePages: 8192,
		coldN:      500, roundN: 1000,
		// About 7,000 ops/s, 3.5 rounds per second. The object graph
		// decays as the mix runs (README.md), so a fixed round count
		// matters most here.
		roundsPerSec: 2,
	},
	{
		// Every object access is a loopback round trip; the served
		// store's default 512-page cache spills, so its pread path works.
		// The cold phase is short because one op takes milliseconds.
		name:       "ocb-remote",
		driver:     "remote",
		clients:    2,
		cachePages: 512,
		coldN:      100, roundN: 100,
		// About 240 ops/s, 1.2 rounds per second.
		roundsPerSec: 0.8,
	},
}

func lookup(name string) (*wl, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is one benchmark invocation.
type config struct {
	w    *wl
	seed int64
	// seconds sets the measured rounds (see wl.roundsPerSec) and caps
	// their time; with trace, the rounds alternate untraced and traced.
	seconds float64
	trace   bool
	// smoke selects the tiny geometry, one set-up and smokeRounds rounds:
	// the package test's run.
	smoke bool
	// dataDir holds the waldisk directories; traceOut receives the spans.
	dataDir, traceOut string
}

// params builds the OCB parameters of the workload.
func (c *config) params() core.Params {
	p := core.DefaultParams() // Seed stays the paper's 1998: one database
	p.ClientN = c.w.clients
	p.ColdN = c.w.coldN
	p.HotN = c.w.roundN
	if c.w.generic {
		p.PSet, p.PSimple, p.PHier, p.PStoch = 0.125, 0.125, 0.125, 0.125
		p.PUpdate, p.PInsert, p.PDelete = 0.25, 0.125, 0.125
	}
	if c.smoke {
		p.NO, p.SupRef = 600, 600
		p.BufferPages = 16
		p.ColdN, p.HotN = 20, 20
	}
	return p
}

// cachePages is the waldisk read-cache size of this run.
func (c *config) cachePages() int {
	if c.smoke && c.w.driver == "remote" {
		return 16
	}
	return c.w.cachePages
}

// env is one set-up database with everything serving it.
type env struct {
	db *core.Database
	// hosted is the served store on remote (undecorated).
	hosted backend.Backend
	// dir is the waldisk data directory (the served store's on remote).
	dir    string
	srv    *wire.Server
	served chan error
	ln     *countingListener
}

// setup opens the backend (starting the server on remote) and generates
// the database. A non-nil rec decorates the served store.
func setup(c *config, rep int, rec *recorder) (e *env, d time.Duration, err error) {
	e = &env{}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	p := c.params()
	t0 := time.Now()
	if c.w.driver != "paged" {
		e.dir = filepath.Join(c.dataDir, fmt.Sprintf("%s-%d-%d", c.w.name, os.Getpid(), rep))
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return e, 0, err
		}
	}
	walOpts := map[string]string{"dir": e.dir, "fsync": "group", "cachepages": strconv.Itoa(c.cachePages())}
	switch c.w.driver {
	case "paged":
		p.Backend = "paged"
	case "waldisk":
		p.Backend = "waldisk"
		p.BackendOptions = walOpts
	case "remote":
		e.hosted, err = backend.Open("waldisk", backend.Config{PageSize: p.PageSize, Options: walOpts})
		if err != nil {
			return e, 0, err
		}
		served := e.hosted
		if rec != nil {
			served = wrap(e.hosted, rec, "waldisk", "server")
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, 0, err
		}
		e.ln = &countingListener{Listener: l}
		e.srv = wire.NewServer(served, "waldisk", nil)
		e.served = make(chan error, 1)
		go func() { e.served <- e.srv.Serve(e.ln) }()
		p.Backend = "remote"
		p.BackendOptions = map[string]string{"addr": l.Addr().String(), "conns": strconv.Itoa(c.w.clients)}
	}
	e.db, err = core.Generate(p)
	if err != nil {
		return e, 0, err
	}
	return e, time.Since(t0), nil
}

// close releases the database, the server and the data directory.
func (e *env) close() error {
	var errs []error
	if e.db != nil {
		errs = append(errs, e.db.Close())
	}
	if e.srv != nil {
		e.srv.Shutdown()
		errs = append(errs, <-e.served)
	}
	if e.hosted != nil {
		errs = append(errs, backend.Shutdown(e.hosted))
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// poolStats reads the cache counters of the store that holds the pool:
// the served store on remote, the client store otherwise.
func (e *env) poolStats() buffer.Stats {
	if e.hosted != nil {
		return e.hosted.Stats().Pool
	}
	return e.db.Store.Stats().Pool
}

// segments returns the waldisk segment files' count and total bytes.
func (e *env) segments() (n int, bytes int64, err error) {
	if e.dir == "" {
		return 0, 0, nil
	}
	files, err := filepath.Glob(filepath.Join(e.dir, "wal-*.log"))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, 0, err
		}
		bytes += fi.Size()
	}
	return len(files), bytes, nil
}

// spaceAmp is stored bytes over the live objects' summed SizeOf.
func (e *env) spaceAmp(c *config) (float64, error) {
	sizer := e.db.Store
	if e.hosted != nil {
		sizer = e.hosted // same objects, without a round trip each
	}
	var live int64
	for _, oid := range e.db.LiveOIDs() {
		n, ok := sizer.SizeOf(oid)
		if !ok {
			return 0, fmt.Errorf("live object %d has no size", oid)
		}
		live += int64(n)
	}
	var stored int64
	if c.w.driver == "paged" {
		stored = int64(e.db.Store.Stats().Pages) * int64(c.params().PageSize)
	} else {
		_, b, err := e.segments()
		if err != nil {
			return 0, err
		}
		stored = b
	}
	if live == 0 {
		return 0, errors.New("no live objects")
	}
	return float64(stored) / float64(live), nil
}

// phase aggregates the measured rounds of one half of a run.
type phase struct {
	tput      []float64 // per-round successful ops per second
	lat       []time.Duration
	ops       int64
	errs      int64
	skips     int64
	objects   int64
	ios       disk.Stats
	wall      time.Duration
	cpu       time.Duration // process CPU time (user + sys)
	pool      buffer.Stats  // cache counter delta
	skipNotes []string
	rounds    int
	wireBytes int64 // bytes through the server's listener (remote)
}

// phaseSeed derives round r's transaction stream from the run seed.
func phaseSeed(seed int64, r int) int64 { return seed<<16 + 2 + int64(r) }

// cold runs the untimed cold phase from an empty cache.
func (e *env) cold(c *config) (*phase, error) {
	spec := core.NewRunner(e.db, nil).PhaseSpec("cold", c.params().ColdN, c.seed<<16+1)
	spec.ColdStart = true
	spec.TolerateErrors = true
	res, err := workload.Run(spec)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	ph.add(res)
	return ph, nil
}

// measure runs the warm phase: rounds rounds, or fewer once ceiling has
// passed, calling afterRound (when set) with the count of rounds done.
// With rec, the rounds alternate untraced and traced, so both halves run
// over the same database state; traced is nil without rec.
func (e *env) measure(c *config, rounds int, ceiling time.Duration, rec *recorder, afterRound func(done int)) (plain, traced *phase, err error) {
	plain = &phase{}
	if rec != nil {
		traced = &phase{}
	}
	start := time.Now()
	for r := 0; r < rounds && (r == 0 || ceiling == 0 || time.Since(start) < ceiling); r++ {
		ph, rr := plain, (*recorder)(nil)
		if rec != nil && r%2 == 1 {
			ph, rr = traced, rec
		}
		if err := e.round(c, r, ph, rr); err != nil {
			return nil, nil, err
		}
		if afterRound != nil {
			afterRound(r + 1)
		}
	}
	for _, ph := range []*phase{plain, traced} {
		if ph != nil {
			sort.Slice(ph.lat, func(i, j int) bool { return ph.lat[i] < ph.lat[j] })
		}
	}
	return plain, traced, nil
}

// round runs warm round r and folds it into ph. A non-nil rec decorates
// the client store for the round and records its spans.
func (e *env) round(c *config, r int, ph *phase, rec *recorder) error {
	if rec != nil {
		raw := e.db.Store
		e.db.Store = wrap(raw, rec, c.w.driver, "client")
		rec.on.Store(true)
		defer func() {
			rec.on.Store(false)
			e.db.Store = raw
		}()
	}
	spec := core.NewRunner(e.db, nil).PhaseSpec("warm", c.params().HotN, phaseSeed(c.seed, r))
	spec.TolerateErrors = true
	lat := make([][]time.Duration, c.w.clients)
	timeOps(spec, lat, rec)
	pool0, bytes0, cpu0 := e.poolStats(), e.wireBytes(), cpuTime()
	res, err := workload.Run(spec)
	if err != nil {
		return err
	}
	ph.cpu += cpuTime() - cpu0
	pool := e.poolStats()
	ph.pool.Hits += pool.Hits - pool0.Hits
	ph.pool.Misses += pool.Misses - pool0.Misses
	ph.pool.Evictions += pool.Evictions - pool0.Evictions
	ph.wireBytes += e.wireBytes() - bytes0
	ph.add(res)
	if res.Duration > 0 {
		ph.tput = append(ph.tput, float64(res.Executed)/res.Duration.Seconds())
	}
	for _, l := range lat {
		ph.lat = append(ph.lat, l...)
	}
	return nil
}

// wireBytes is the byte count of the server's listener so far (0 when
// there is no server).
func (e *env) wireBytes() int64 {
	if e.ln == nil {
		return 0
	}
	return e.ln.bytes.Load()
}

// cpuTime is the process's CPU time so far, user plus system: on remote
// it includes the in-process server, and always the collector and the
// stores' background goroutines.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // never on Linux; the figure would read 0 and show it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeOps wraps every op's Run so the benchmark itself times it (and, when
// tracing, records its span). Latencies go to the client's own slice.
func timeOps(spec *workload.Spec, lat [][]time.Duration, rec *recorder) {
	for i := range spec.Ops {
		run, name := spec.Ops[i].Run, "op."+spec.Ops[i].Name
		spec.Ops[i].Run = func(ctx *workload.Ctx) (int, error) {
			var id uint64
			if rec != nil {
				id = rec.beginOp()
			}
			t0 := time.Now()
			n, err := run(ctx)
			d := time.Since(t0)
			if rec != nil {
				rec.endOp(id, name, t0, d)
			}
			if err == nil {
				lat[ctx.Client] = append(lat[ctx.Client], d)
			}
			return n, err
		}
	}
}

// add folds one workload.Run result in.
func (ph *phase) add(res *workload.Result) {
	ph.rounds++
	ph.ops += res.Executed
	ph.errs += res.Total.Errors
	ph.objects += res.Total.ObjectsTotal
	for _, op := range res.PerOp {
		ph.skips += op.Skipped
	}
	ph.skipNotes = append(ph.skipNotes, res.Skips...)
	for k := range ph.ios.Reads {
		ph.ios.Reads[k] += res.DiskDelta.Reads[k]
		ph.ios.Writes[k] += res.DiskDelta.Writes[k]
	}
	ph.wall += res.Duration
}

func (ph *phase) attempted() int64 { return ph.ops + ph.errs + ph.skips }

// quantileIndex is the nearest-rank index of quantile q in n sorted values.
func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(float64(n)*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func perOp(v float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// codecNsPerFrame times wire.Buf encoding, ReadFrame and Reader decoding
// of the Access and AccessBatch request/response frame shapes (batch OIDs
// per batch request) and returns the median ns per frame of five reps.
func codecNsPerFrame(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	oids := make([]backend.OID, batch)
	for i := range oids {
		oids[i] = backend.OID(7*i + 1)
	}
	var (
		out  wire.Buf
		bb   bytes.Buffer
		rbuf []byte
		dst  []backend.OID
		sink uint64
	)
	const iters = 20000
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			bb.Reset()
			out.Start(wire.OpAccess)
			out.U64(uint64(oids[i%batch]))
			_ = out.Send(&bb) // a bytes.Buffer write cannot fail
			out.Start(wire.StatusOK)
			_ = out.Send(&bb)
			out.Start(wire.OpAccessBatch)
			out.OIDs(oids)
			_ = out.Send(&bb)
			out.Start(wire.StatusOK)
			out.U32(uint32(batch))
			_ = out.Send(&bb)
			for f := 0; f < 4; f++ {
				_, payload, grown, err := wire.ReadFrame(&bb, rbuf)
				if err != nil {
					panic(err) // frames written just above; a bug alone lands here
				}
				rbuf = grown
				r := wire.NewReader(payload)
				switch f {
				case 0:
					sink += r.U64()
				case 2:
					dst = r.OIDs(dst[:0])
					sink += uint64(len(dst))
				case 3:
					sink += uint64(r.U32())
				}
			}
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/(4*iters))
	}
	if sink == 0 {
		return 0
	}
	return median(reps)
}
