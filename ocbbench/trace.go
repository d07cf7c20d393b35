package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// method is a backend call the decorator times.
type method int

const (
	mAccess method = iota
	mAccessBatch
	mUpdate
	mCreate
	mDelete
	mCommit
	numMethods
)

var methodNames = [numMethods]string{"access", "access_batch", "update", "create", "delete", "commit"}

// span is one timed interval of the traced run: an op (around Op.Run) or
// a backend call on the client or server side of the decorator. Times are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0: none, or not attributable
	Name   string `json:"name"`
	Side   string `json:"side"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// maxSpans bounds the spans kept in memory; later spans still count in
// the totals but are not written out.
const maxSpans = 1 << 17

// recorder holds the traced run's spans and per-layer call totals. It
// records only while on; the decorators check the flag on every call.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	single bool // one client: call spans can name their op as parent

	ids   atomic.Uint64
	curOp atomic.Uint64 // op in flight (single-client runs only)

	nSpans atomic.Int64 // spans recorded, kept or not
	spans  []span

	opNs atomic.Int64

	mu     sync.Mutex
	layers map[string]*layerTimes // by side:driver
}

func newRecorder(clients int) *recorder {
	return &recorder{epoch: time.Now(), single: clients == 1, spans: make([]span, maxSpans),
		layers: make(map[string]*layerTimes)}
}

// layer returns the call totals of one decorated driver on one side,
// creating them on first use.
func (r *recorder) layer(driver, side string) *layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := side + ":" + driver
	lt, ok := r.layers[k]
	if !ok {
		lt = &layerTimes{driver: driver, side: side}
		r.layers[k] = lt
	}
	return lt
}

// find returns the totals of driver on side, or nil when it was never
// decorated.
func (r *recorder) find(driver, side string) *layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.layers[side+":"+driver]
}

func (r *recorder) keep(s span) {
	if i := r.nSpans.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = s
	}
}

// beginOp opens an op span and returns its id.
func (r *recorder) beginOp() uint64 {
	id := r.ids.Add(1)
	if r.single {
		r.curOp.Store(id)
	}
	return id
}

// endOp closes an op span named name.
func (r *recorder) endOp(id uint64, name string, t0 time.Time, d time.Duration) {
	r.opNs.Add(int64(d))
	if r.single {
		r.curOp.Store(0)
	}
	r.keep(span{ID: id, Name: name, Side: "client", Start: int64(t0.Sub(r.epoch)), Dur: int64(d)})
}

// call records one decorated backend call of items objects.
func (r *recorder) call(lt *layerTimes, m method, t0 time.Time, items int) {
	d := time.Since(t0)
	c := &lt.m[m]
	c.calls.Add(1)
	c.ns.Add(int64(d))
	c.items.Add(int64(items))
	if m == mCommit {
		lt.mu.Lock()
		lt.commitNs = append(lt.commitNs, int64(d))
		lt.mu.Unlock()
	}
	var parent uint64
	if r.single && lt.side == "client" {
		parent = r.curOp.Load()
	}
	r.keep(span{ID: r.ids.Add(1), Parent: parent, Name: lt.driver + "." + methodNames[m],
		Side: lt.side, Start: int64(t0.Sub(r.epoch)), Dur: int64(d)})
}

// write stores the kept spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := r.nSpans.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	for i := int64(0); i < n; i++ {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTotals accumulates one method's calls.
type callTotals struct {
	calls, ns, items atomic.Int64
}

// layerTimes are the call totals of one decorated driver.
type layerTimes struct {
	driver, side string
	m            [numMethods]callTotals

	mu       sync.Mutex
	commitNs []int64
}

// totalNs and totalCalls sum every timed method.
func (lt *layerTimes) totalNs() int64 {
	var s int64
	for i := range lt.m {
		s += lt.m[i].ns.Load()
	}
	return s
}

func (lt *layerTimes) totalCalls() int64 {
	var s int64
	for i := range lt.m {
		s += lt.m[i].calls.Load()
	}
	return s
}

// meanNs is the mean duration of one call of m (per item when perItem).
func (lt *layerTimes) meanNs(m method, perItem bool) float64 {
	c := &lt.m[m]
	div := c.calls.Load()
	if perItem {
		div = c.items.Load()
	}
	if div == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(div)
}

// commitP99Ns is the exact 99th percentile commit duration.
func (lt *layerTimes) commitP99Ns() float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if len(lt.commitNs) == 0 {
		return 0
	}
	s := append([]int64(nil), lt.commitNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[quantileIndex(len(s), 0.99)])
}

// traced is the timing decorator around a backend. The calls of a
// transaction's hot path (Access, AccessBatch, Update, Create, Delete,
// Commit) are timed; every other method forwards untouched.
//
// IOClassifier and Checker are always present and forward through
// backend.SetIOClass and backend.CheckIntegrity, which are vacuous when
// the inner backend lacks them (the remote driver offers the same
// contract). Durable, Placer and Ranger are present exactly when the
// inner backend has them: wrap picks the composite type, because the
// workloads and wire.Server discover them by type assertion and a
// decorator that hid one would silently change the workload.
type traced struct {
	b   backend.Backend
	rec *recorder
	lt  *layerTimes
}

var (
	_ backend.IOClassifier = (*traced)(nil)
	_ backend.Checker      = (*traced)(nil)
	_ backend.Durable      = tracedDurable{}
)

// wrap decorates b, recording into rec under driver's name on side.
func wrap(b backend.Backend, rec *recorder, driver, side string) backend.Backend {
	t := &traced{b: b, rec: rec, lt: rec.layer(driver, side)}
	_, isD := b.(backend.Durable)
	p, isP := b.(backend.Placer)
	r, isR := b.(backend.Ranger)
	d := tracedDurable{t}
	switch {
	case isD && isP && isR:
		return struct {
			tracedDurable
			backend.Placer
			backend.Ranger
		}{d, p, r}
	case isD && isP:
		return struct {
			tracedDurable
			backend.Placer
		}{d, p}
	case isD && isR:
		return struct {
			tracedDurable
			backend.Ranger
		}{d, r}
	case isD:
		return d
	case isP && isR:
		return struct {
			*traced
			backend.Placer
			backend.Ranger
		}{t, p, r}
	case isP:
		return struct {
			*traced
			backend.Placer
		}{t, p}
	case isR:
		return struct {
			*traced
			backend.Ranger
		}{t, r}
	}
	return t
}

// tracedDurable is the decorator over a Durable backend; Reopen wraps the
// reopened instance so tracing survives a restart.
type tracedDurable struct{ *traced }

func (t tracedDurable) Close() error { return t.b.(backend.Durable).Close() }

func (t tracedDurable) Reopen() (backend.Backend, error) {
	nb, err := t.b.(backend.Durable).Reopen()
	if err != nil {
		return nil, err
	}
	return wrap(nb, t.rec, t.lt.driver, t.lt.side), nil
}

func (t *traced) Create(payloadSize int) (backend.OID, error) {
	if !t.rec.on.Load() {
		return t.b.Create(payloadSize)
	}
	t0 := time.Now()
	oid, err := t.b.Create(payloadSize)
	t.rec.call(t.lt, mCreate, t0, 1)
	return oid, err
}

func (t *traced) Access(oid backend.OID) error {
	if !t.rec.on.Load() {
		return t.b.Access(oid)
	}
	t0 := time.Now()
	err := t.b.Access(oid)
	t.rec.call(t.lt, mAccess, t0, 1)
	return err
}

func (t *traced) AccessBatch(oids []backend.OID) (int, error) {
	if !t.rec.on.Load() {
		return t.b.AccessBatch(oids)
	}
	t0 := time.Now()
	n, err := t.b.AccessBatch(oids)
	t.rec.call(t.lt, mAccessBatch, t0, len(oids))
	return n, err
}

func (t *traced) Update(oid backend.OID) error {
	if !t.rec.on.Load() {
		return t.b.Update(oid)
	}
	t0 := time.Now()
	err := t.b.Update(oid)
	t.rec.call(t.lt, mUpdate, t0, 1)
	return err
}

func (t *traced) Delete(oid backend.OID) error {
	if !t.rec.on.Load() {
		return t.b.Delete(oid)
	}
	t0 := time.Now()
	err := t.b.Delete(oid)
	t.rec.call(t.lt, mDelete, t0, 1)
	return err
}

func (t *traced) Commit() error {
	if !t.rec.on.Load() {
		return t.b.Commit()
	}
	t0 := time.Now()
	err := t.b.Commit()
	t.rec.call(t.lt, mCommit, t0, 1)
	return err
}

func (t *traced) Exists(oid backend.OID) bool        { return t.b.Exists(oid) }
func (t *traced) SizeOf(oid backend.OID) (int, bool) { return t.b.SizeOf(oid) }
func (t *traced) DropCache()                         { t.b.DropCache() }
func (t *traced) Stats() backend.Stats               { return t.b.Stats() }
func (t *traced) DiskStats() disk.Stats              { return t.b.DiskStats() }
func (t *traced) ResetStats()                        { t.b.ResetStats() }
func (t *traced) SetIOClass(c disk.IOClass)          { backend.SetIOClass(t.b, c) }
func (t *traced) CheckIntegrity() error              { return backend.CheckIntegrity(t.b) }

// countingListener counts the bytes every accepted connection moves, in
// both directions.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}
