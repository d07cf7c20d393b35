// Command ocbbench is the repository's benchmark: it runs one named OCB
// workload from a seed, measures a fixed number of warm rounds, checks
// the database afterwards, and prints every metric by name with its unit.
//
//	go run . --workload ocb-paged-spill --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit status is
// non-zero when a correctness check fails (the metrics are still
// printed). README.md documents the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocb/internal/backend"
	"ocb/internal/buffer"
	"ocb/internal/core"
	"ocb/internal/disk"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses the flags, runs the benchmark and prints its records; it
// returns the process exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ocb-paged-spill, ocb-waldisk-rw or ocb-remote")
	seed := fs.Int64("seed", 1998, "seed of every transaction stream (the database is always generated at the paper's seed, 1998)")
	seconds := fs.Float64("seconds", 10, "sets the measured rounds (seconds × the workload's rounds per second) and caps their time")
	traceFlag := fs.Int("trace", 0, "1 alternates untraced and traced rounds and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny geometry (600 objects), one set-up and exactly four rounds: a check in seconds")
	dataDir := fs.String("data", filepath.Join(".bench_build", "data"), "directory for waldisk data and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "ocbbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds <= 0 && !*smoke {
		fmt.Fprintln(stderr, "ocbbench: want --trace 0|1 and --seconds > 0")
		return 2
	}
	c := &config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke, dataDir: *dataDir,
		traceOut: filepath.Join(*dataDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))}
	rep, err := run(c)
	if err != nil {
		fmt.Fprintln(stderr, "ocbbench:", err)
		return 1
	}
	if err := rep.print(stdout, c.trace); err != nil {
		fmt.Fprintln(stderr, "ocbbench:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's outcome.
type check struct {
	Name  string `json:"name"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// report is everything one run prints.
type report struct {
	context            map[string]any
	checks             []check
	endToEnd, perLayer map[string]metric
	attempted, failed  int64
	correct            bool
}

// print writes the context and checks records, then the result line.
func (r *report) print(w io.Writer, trace bool) error {
	metrics := r.endToEnd
	if trace {
		metrics = r.perLayer
	}
	lines := []any{
		r.context,
		map[string]any{"record": "checks", "checks": r.checks},
		map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics},
	}
	enc := json.NewEncoder(w)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// run executes one benchmark invocation: set-up (repeated, median kept),
// the untimed cold phase, the measured warm rounds (alternating with
// traced ones with c.trace), the metrics and the correctness checks.
func run(c *config) (rep *report, err error) {
	var rec *recorder
	if c.trace {
		rec = newRecorder(c.w.clients)
	}
	if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
		return nil, err
	}
	setupN, rounds, ceiling := fullSetups, int(math.Ceil(c.seconds*c.w.roundsPerSec)), time.Duration(c.seconds*float64(time.Second))
	if c.smoke {
		setupN, rounds, ceiling = 1, smokeRounds, 0
	}
	var setups, setupsCPU []float64
	var e *env
	for i := 0; i < setupN; i++ {
		cpu0 := cpuTime()
		ei, d, err := setup(c, i, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		setupsCPU = append(setupsCPU, (cpuTime() - cpu0).Seconds())
		if i == setupN-1 {
			e = ei
		} else if err := ei.close(); err != nil {
			return nil, fmt.Errorf("set-up close: %w", err)
		}
		// Collect set-up garbage now, so the next set-up does not pay
		// for this one's.
		runtime.GC()
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	// Hand the earlier set-ups' memory back and restart the resident-set
	// high-water mark, so peak_rss_mb follows the kept database and the
	// phases that run on it.
	debug.FreeOSMemory()
	rssErr := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)

	cold, err := e.cold(c)
	if err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	// The footprint metrics are taken after a fixed amount of work (the
	// cold phase and footprintRounds warm rounds), or at the end of a
	// shorter run.
	var fp *footprint
	takeFootprint := func(done int) {
		if fp == nil && done == footprintRounds {
			fp = e.footprint(c)
		}
	}
	plain, traced, err := e.measure(c, rounds, ceiling, rec, takeFootprint)
	if err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	if fp == nil {
		fp = e.footprint(c)
	}
	fp.err = errors.Join(rssErr, fp.err)
	rep = &report{}
	rep.attempted, rep.failed = plain.attempted(), plain.errs+plain.skips
	if traced != nil {
		rep.attempted += traced.attempted()
		rep.failed += traced.errs + traced.skips
	}

	rep.endToEnd = map[string]metric{
		"ios_per_op":    {perOp(float64(plain.ios.TransactionIOs()), plain.ops), "count"},
		"cpu_us_per_op": {perOp(float64(plain.cpu.Nanoseconds()), plain.ops) / 1e3, "us"},
		"setup_s":       {median(setupsCPU), "s"},
		"space_amp":     {fp.spaceAmp, "ratio"},
		"peak_rss_mb":   {fp.peakRSSMB, "MB"},
	}
	if traced != nil {
		rep.perLayer = layerMetrics(c, e, rec, plain, traced)
		if err := rec.write(c.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	rep.checks = append(e.gate(c, cold, plain, traced), newCheck("footprint", fp.err))
	rep.correct = true
	for _, ck := range rep.checks {
		rep.correct = rep.correct && ck.OK
	}

	rep.context = contextRecord(c, plain, traced, rec, setups, setupsCPU)
	return rep, nil
}

const (
	// fullSetups is how many times a run sets up; setup_s is their median.
	fullSetups = 9
	// smokeRounds is the rounds of a -smoke run, two per half with trace.
	smokeRounds = 4
	// footprintRounds is the warm round after which the footprint is taken.
	footprintRounds = 5
)

// footprint is the run's storage and memory footprint at one point.
type footprint struct {
	spaceAmp, peakRSSMB float64
	err                 error
}

func (e *env) footprint(c *config) *footprint {
	fp := &footprint{}
	fp.spaceAmp, fp.err = e.spaceAmp(c)
	hwm, err := vmHWM()
	fp.peakRSSMB = float64(hwm) / 1024
	fp.err = errors.Join(fp.err, err)
	return fp
}

// vmHWM reads the resident-set high-water mark in KiB from
// /proc/self/status.
func vmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func newCheck(name string, err error) check {
	ck := check{Name: name, OK: err == nil}
	if err != nil {
		ck.Error = err.Error()
	}
	return ck
}

// gate runs the correctness checks after a run: no op of the phases
// failed or was skipped, the store passes its self-check, the object
// graph holds, and on waldisk every acknowledged write survives Close and
// Reopen.
func (e *env) gate(c *config, phases ...*phase) []check {
	var n int64
	var notes []string
	for _, ph := range phases {
		if ph != nil {
			n += ph.errs + ph.skips
			notes = append(notes, ph.skipNotes...)
		}
	}
	var failed error
	if n > 0 {
		failed = fmt.Errorf("%d operations failed or were skipped %v", n, notes)
	}
	cks := []check{
		newCheck("no_failures", failed),
		newCheck("integrity", backend.CheckIntegrity(e.db.Store)),
		newCheck("database", core.CheckDatabase(e.db)),
	}
	if c.w.driver == "waldisk" {
		cks = append(cks, newCheck("reopen", e.reopen()))
	}
	return cks
}

// reopen closes the waldisk store, reopens it from its directory and
// checks the object graph and the store again.
func (e *env) reopen() error {
	d, ok := e.db.Store.(backend.Durable)
	if !ok {
		return errors.New("store is not durable")
	}
	if err := d.Close(); err != nil {
		e.db.Store = nil // closed or broken; nothing left for env.close
		return fmt.Errorf("close: %w", err)
	}
	nb, err := d.Reopen()
	if err != nil {
		e.db.Store = nil // closed; nothing left for env.close to release
		return fmt.Errorf("reopen: %w", err)
	}
	e.db.Store = nb
	if err := core.CheckDatabase(e.db); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return backend.CheckIntegrity(nb)
}

func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[quantileIndex(len(sorted), q)].Nanoseconds()) / 1e3
}

// layerMetrics derives the per-layer metrics of the traced half. Under
// two clients a driver call cannot be tied to its op from outside the
// program, so self times are phase totals: op time minus driver time,
// over ops.
func layerMetrics(c *config, e *env, rec *recorder, plain, tr *phase) map[string]metric {
	m := map[string]metric{}
	ops := tr.ops
	clientNs := float64(c.w.clients) * float64(tr.wall.Nanoseconds())
	opNs := float64(rec.opNs.Load())
	client := rec.find(c.w.driver, "client")
	m["workload.overhead_us_per_op"] = metric{perOp(clientNs-opNs, ops) / 1e3, "us"}
	m["workload.error_rate"] = metric{perOp(float64(tr.errs+plain.errs), tr.attempted()+plain.attempted()), "ratio"}
	m["core.self_us_per_op"] = metric{perOp(opNs-float64(client.totalNs()), ops) / 1e3, "us"}
	m["core.objects_per_op"] = metric{perOp(float64(tr.objects), ops), "count"}
	m["core.driver_calls_per_op"] = metric{perOp(float64(client.totalCalls()), ops), "count"}
	for _, d := range []string{"paged", "waldisk", "remote"} {
		lt := rec.find(d, "client")
		if lt == nil {
			lt = rec.find(d, "server")
		}
		if lt == nil {
			lt = &layerTimes{}
		}
		m[d+".access_ns"] = metric{lt.meanNs(mAccess, false), "ns"}
		m[d+".access_batch_ns_per_oid"] = metric{lt.meanNs(mAccessBatch, true), "ns"}
		m[d+".update_us"] = metric{lt.meanNs(mUpdate, false) / 1e3, "us"}
		m[d+".create_us"] = metric{lt.meanNs(mCreate, false) / 1e3, "us"}
		m[d+".delete_us"] = metric{lt.meanNs(mDelete, false) / 1e3, "us"}
		m[d+".busy_share"] = metric{float64(lt.totalNs()) / clientNs, "ratio"}
		if d == "waldisk" {
			m["waldisk.commit_us"] = metric{lt.meanNs(mCommit, false) / 1e3, "us"}
			m["waldisk.commit_p99_us"] = metric{lt.commitP99Ns() / 1e3, "us"}
			m["waldisk.commits_per_op"] = metric{perOp(float64(lt.m[mCommit].calls.Load()), ops), "count"}
		}
	}
	for _, cache := range []string{"sharded", "objcache"} {
		var p buffer.Stats
		if (cache == "sharded") == (c.w.driver == "paged") {
			p = tr.pool
		}
		m["buffer."+cache+".hit_ratio"] = metric{p.HitRatio(), "ratio"}
		m["buffer."+cache+".misses_per_op"] = metric{perOp(float64(p.Misses), ops), "count"}
		m["buffer."+cache+".evictions_per_op"] = metric{perOp(float64(p.Evictions), ops), "count"}
	}
	m["disk.reads_per_op"] = metric{perOp(float64(tr.ios.Reads[disk.Transaction]), ops), "count"}
	m["disk.writes_per_op"] = metric{perOp(float64(tr.ios.Writes[disk.Transaction]), ops), "count"}
	segs, stored, _ := e.segments() // a listing error already fails the space_amp check
	m["waldisk.stored_bytes"] = metric{float64(stored), "B"}
	m["waldisk.segments"] = metric{float64(segs), "count"}
	var wireOverhead, codec, wireBytes float64
	if c.w.driver == "remote" {
		server := rec.find("waldisk", "server")
		wireOverhead = perOp(float64(client.totalNs()-server.totalNs()), client.totalCalls()) / 1e3
		batch := &client.m[mAccessBatch]
		codec = codecNsPerFrame(int(perOp(float64(batch.items.Load()), batch.calls.Load()) + 0.5))
		wireBytes = perOp(float64(tr.wireBytes), ops)
	}
	m["wire.overhead_us_per_call"] = metric{wireOverhead, "us"}
	m["wire.codec_ns_per_frame"] = metric{codec, "ns"}
	m["wire.bytes_per_op"] = metric{wireBytes, "B"}
	m["trace.overhead_pct"] = metric{(1 - median(tr.tput)/median(plain.tput)) * 100, "%"}
	return m
}

// contextRecord is the first printed record: what produced the numbers.
func contextRecord(c *config, plain, traced *phase, rec *recorder, setups, setupsCPU []float64) map[string]any {
	p := c.params()
	ctx := map[string]any{
		"record":     "context",
		"workload":   c.w.name,
		"commit":     commit(),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       c.seed,
		"db_seed":    p.Seed,
		"clients":    c.w.clients,
		"objects":    p.NO,
		"driver":     c.w.driver,
		"fsync":      "n/a",
		"cachepages": 0,
		"pool_pages": 0,
		"data_fs":    fsName(c.dataDir),
		"smoke":      c.smoke,
		"seconds":    c.seconds,
		"cold_ops":   p.ColdN * c.w.clients,
		"round_ops":  p.HotN * c.w.clients,
		"rounds":     plain.rounds,
		// Printed, not gated; see README.md.
		"throughput_ops_s":   median(plain.tput),
		"latency_p50_us":     quantileUs(plain.lat, 0.50),
		"latency_p99_us":     quantileUs(plain.lat, 0.99),
		"latency_samples":    len(plain.lat),
		"setup_wall_s":       median(setups),
		"setup_wall_samples": setups,
		"setup_cpu_samples":  setupsCPU,
	}
	if c.w.driver == "paged" {
		ctx["pool_pages"] = p.BufferPages
	} else {
		ctx["fsync"] = "group"
		ctx["cachepages"] = c.cachePages()
	}
	if traced != nil {
		ctx["traced_rounds"] = traced.rounds
		ctx["span_file"] = c.traceOut
		ctx["spans_dropped"] = max(0, rec.nSpans.Load()-maxSpans)
	}
	return ctx
}

// commit names the source revision the binary was built from.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// fsName names the filesystem holding dir: latencies measured on it are
// that filesystem's (often a container overlay), not a device's.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
