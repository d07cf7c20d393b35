package core

import (
	"fmt"
	"time"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
	"ocb/internal/workload"
)

// TxType enumerates OCB's transaction classes (Fig. 3).
type TxType int

// The four OCB transaction types. Set-oriented accesses explore in breadth
// first on all references; navigational accesses are depth first: simple
// traversals on all references, hierarchy traversals always following the
// same reference type, stochastic traversals choosing the next reference at
// random with p(N) = 1/2^N (Markov-chain-like, after Tsangaris & Naughton).
const (
	SetAccess TxType = iota
	SimpleTraversal
	HierarchyTraversal
	StochasticTraversal
	// The generic transaction set of the paper's Section 5 extension —
	// operations initially discarded because they cannot benefit from
	// clustering. Their occurrence probabilities default to 0.
	UpdateOp
	InsertOp
	DeleteOp
	ScanOp
	RangeOp
	NumTxTypes // sentinel
)

// String returns the transaction type name as used in reports.
func (t TxType) String() string {
	switch t {
	case SetAccess:
		return "set"
	case SimpleTraversal:
		return "simple"
	case HierarchyTraversal:
		return "hierarchy"
	case StochasticTraversal:
		return "stochastic"
	case UpdateOp:
		return "update"
	case InsertOp:
		return "insert"
	case DeleteOp:
		return "delete"
	case ScanOp:
		return "scan"
	case RangeOp:
		return "range"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Transaction is one workload unit: a typed exploration from a root object
// up to a depth, optionally reversed ("ascending" the graphs through
// backward references).
type Transaction struct {
	Type TxType
	Root backend.OID
	// Depth bounds the exploration: hops from the root for the traversals,
	// steps for the stochastic walk.
	Depth int
	// RefType is the reference type a hierarchy traversal follows.
	RefType int
	// Reverse makes the transaction follow BackRef links instead of ORef.
	Reverse bool
}

// TxResult reports one executed transaction.
type TxResult struct {
	ObjectsAccessed int
	IOs             uint64
	Duration        time.Duration
}

// Executor runs transactions against a database on behalf of one client,
// feeding the clustering policy's observation phase along the way.
//
// Every read transaction has one fault path: plan, then fault in order.
// The walk order of set access, the three traversals, scans and range
// lookups comes only from the in-memory object graph and the client's
// random source — never from what a fault returns — so each transaction
// appends its visits as (from, to) pairs to a plan, and the plan is
// faulted through Store.AccessBatch one chunk of at most scanBatch visits
// at a time, and once more at the end. AccessBatch charges exactly the
// I/Os, counters and replacement decisions of the equivalent Access
// sequence, repeats included, so access order and every measurement are
// those of per-object faulting; only the number of driver calls (lock
// acquisitions, syscalls, network round trips) falls, to about one per
// chunk. After each chunk the policy observes the completed prefix in
// visit order: ObserveRoot for a visit without a parent, ObserveLink
// otherwise.
//
// On an error the transaction returns the completed prefix count, and the
// policy has observed only that prefix. One difference from per-object
// faulting remains on that path: a stochastic walk may already have drawn
// its Src choices for the unfaulted rest of the chunk. On success the Src
// stream is exactly the per-object walk's.
//
// The executor owns reusable per-client scratch state — a
// generation-stamped seen-set, the breadth-first queue and the plan,
// which never grows past one chunk — so the transaction fast path
// allocates nothing per visited object: the harness's own overhead stays
// out of the measured response times, as the benchmark design demands.
type Executor struct {
	DB *Database
	// Policy receives ObserveLink/ObserveRoot/EndTransaction callbacks;
	// nil means no observation (plain measurement run).
	Policy cluster.Policy
	// Src drives the stochastic traversal's random choices.
	Src *lewis.Source

	// seen deduplicates set-access visits; reset is O(1) via generation
	// stamping instead of reallocating a map per transaction (the scratch
	// now lives in the workload engine, shared by every suite).
	seen workload.SeenSet
	// frontier is set access's breadth-first queue: every discovered
	// object in discovery order, levels delimited by index.
	frontier []backend.OID
	// next and nextFrom are the plan: the pending visits of the current
	// chunk and each visit's parent (NilOID for roots).
	next     []backend.OID
	nextFrom []backend.OID
	// accessed counts the current transaction's faulted visits.
	accessed int
	// quiet suppresses per-visit observation for the transactions that
	// observe only their root (scan, range lookup).
	quiet bool
}

// NewExecutor returns an executor for db feeding policy (may be nil).
func NewExecutor(db *Database, policy cluster.Policy, src *lewis.Source) *Executor {
	return &Executor{
		DB: db, Policy: policy, Src: src,
		next:     make([]backend.OID, 0, scanBatch),
		nextFrom: make([]backend.OID, 0, scanBatch),
	}
}

// mutating reports whether the transaction restructures the in-memory
// object graph (and therefore needs the database's exclusive lock).
func (tx Transaction) mutating() bool {
	return tx.Type == InsertOp || tx.Type == DeleteOp
}

// Exec runs one transaction, returning objects accessed, I/Os charged to
// the transaction class, and wall-clock duration. On an error only
// ObjectsAccessed is set: the completed prefix of the transaction's
// visits.
//
// Concurrency: read-only transaction types share-lock the database's graph
// lock, so traversals from many clients proceed in parallel; insertions
// and deletions take it exclusively (they restructure Objects, iterators
// and BackRefs). Store-level faulting is internally sharded.
//
// I/O attribution note: the I/O delta is read from the shared disk
// counters, so with CLIENTN > 1 concurrent clients the per-transaction
// figure includes interleaved faults of other clients; global phase totals
// remain exact. With one client the figure is exact (the configuration of
// every experiment in the paper's Section 4).
func (e *Executor) Exec(tx Transaction) (TxResult, error) {
	if tx.mutating() {
		e.DB.mu.Lock()
		defer e.DB.mu.Unlock()
	} else {
		e.DB.mu.RLock()
		defer e.DB.mu.RUnlock()
	}
	before := e.DB.Store.DiskStats()
	//ocblint:allow determinism -- harness timing, not op logic
	start := time.Now()

	accessed, err := e.execLocked(tx)
	if err != nil {
		return TxResult{ObjectsAccessed: accessed}, err
	}

	after := e.DB.Store.DiskStats()
	return TxResult{
		ObjectsAccessed: accessed,
		IOs:             after.TransactionIOs() - before.TransactionIOs(),
		//ocblint:allow determinism -- harness timing, not op logic
		Duration: time.Since(start),
	}, nil
}

// ExecCounted is Exec without the measuring wrapper: it takes the same
// locks and runs the same transaction body but returns only the accessed
// object count. The workload engine uses it on the hot phase path — the
// engine samples time and disk counters itself, so Exec's per-transaction
// measurement would be computed twice and discarded.
func (e *Executor) ExecCounted(tx Transaction) (int, error) {
	if tx.mutating() {
		e.DB.mu.Lock()
		defer e.DB.mu.Unlock()
	} else {
		e.DB.mu.RLock()
		defer e.DB.mu.RUnlock()
	}
	return e.execLocked(tx)
}

// execLocked is the transaction body shared by Exec and ExecCounted; the
// caller holds the database's graph lock in the mode tx.mutating()
// demands. On an error it returns the completed prefix count.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) execLocked(tx Transaction) (int, error) {
	// Under the generic workload, deletions may have invalidated the
	// sampled root; an in-range but deleted root resolves onto the live
	// object set. Out-of-range roots remain errors.
	if tx.Type != InsertOp && tx.Type != ScanOp {
		if tx.Root == backend.NilOID || int(tx.Root) >= len(e.DB.Objects) {
			return 0, fmt.Errorf("ocb: bad root %d", tx.Root)
		}
		if e.DB.Objects[tx.Root] == nil {
			root, ok := e.DB.ResolveLive(tx.Root)
			if !ok {
				return 0, fmt.Errorf("ocb: no live objects left")
			}
			tx.Root = root
		}
	}
	e.next, e.nextFrom = e.next[:0], e.nextFrom[:0]
	e.accessed, e.quiet = 0, false

	var accessed int
	var err error
	switch tx.Type {
	case SetAccess:
		accessed, err = e.setAccess(tx.Root, tx.Depth, tx.Reverse)
	case SimpleTraversal:
		accessed, err = e.simple(tx.Root, tx.Depth, tx.Reverse)
	case HierarchyTraversal:
		accessed, err = e.hierarchy(tx.Root, tx.Depth, tx.RefType, tx.Reverse)
	case StochasticTraversal:
		accessed, err = e.stochastic(tx.Root, tx.Depth, tx.Reverse)
	case UpdateOp:
		accessed, err = e.update(tx.Root)
	case InsertOp:
		accessed, err = e.insert()
	case DeleteOp:
		accessed, err = e.delete(tx.Root)
	case ScanOp:
		accessed, err = e.scan()
	case RangeOp:
		accessed, err = e.rangeLookup(tx.Root)
	default:
		return 0, fmt.Errorf("ocb: unknown transaction type %v", tx.Type)
	}
	if err != nil {
		return accessed, err
	}
	if e.Policy != nil {
		e.Policy.EndTransaction()
	}
	return accessed, nil
}

// plan appends one visit — to, reached from from (NilOID for a root) — to
// the plan, faulting the chunk once it holds scanBatch visits, so a fault
// batch never pins paged's structural lock longer than a scan batch does.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) plan(from, to backend.OID) error {
	e.next = append(e.next, to)
	e.nextFrom = append(e.nextFrom, from)
	if len(e.next) < scanBatch {
		return nil
	}
	return e.flush()
}

// flush faults the planned visits in order through one Store.AccessBatch
// call, lets the policy observe the completed prefix, and empties the
// plan. An empty plan costs no driver call.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) flush() error {
	if len(e.next) == 0 {
		return nil
	}
	n, err := e.DB.Store.AccessBatch(e.next)
	if e.Policy != nil && !e.quiet {
		for i := 0; i < n; i++ {
			if from := e.nextFrom[i]; from == backend.NilOID {
				e.Policy.ObserveRoot(e.next[i])
			} else {
				e.Policy.ObserveLink(from, e.next[i])
			}
		}
	}
	e.accessed += n
	e.next, e.nextFrom = e.next[:0], e.nextFrom[:0]
	return err
}

// finish faults the rest of the plan and returns the transaction's
// completed visit count.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) finish() (int, error) {
	err := e.flush()
	return e.accessed, err
}

// discover marks a successor as seen and, when new, queues it for the
// next level and plans its visit.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) discover(from, to backend.OID) error {
	if !e.seen.Add(to) {
		return nil
	}
	e.frontier = append(e.frontier, to)
	return e.plan(from, to)
}

// setAccess is the set-oriented access: breadth-first on all the
// references, up to depth hops, with set semantics (each object accessed
// once — the breadth-first result is a set of qualifying objects). The
// visits are planned in discovery order, root first, level by level; the
// queue and seen-set are the executor's reusable scratch.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) setAccess(root backend.OID, depth int, reverse bool) (int, error) {
	e.seen.Reset(len(e.DB.Objects))
	e.seen.Add(root)
	e.frontier = append(e.frontier[:0], root)
	if err := e.plan(backend.NilOID, root); err != nil {
		return e.accessed, err
	}
	for level, lo := 0, 0; level < depth && lo < len(e.frontier); level++ {
		hi := len(e.frontier)
		// discover appends the next level to the queue; the range keeps
		// iterating this level's bounds.
		for _, oid := range e.frontier[lo:hi] {
			obj := e.DB.Object(oid)
			if reverse {
				for _, succ := range obj.BackRef {
					if err := e.discover(oid, succ); err != nil {
						return e.accessed, err
					}
				}
				continue
			}
			for _, succ := range obj.ORef {
				if succ == backend.NilOID {
					continue
				}
				if err := e.discover(oid, succ); err != nil {
					return e.accessed, err
				}
			}
		}
		lo = hi
	}
	return e.finish()
}

// simple is the simple traversal: depth-first on all the references up to
// depth hops, duplicates allowed (as in OO1's part tree exploration).
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) simple(root backend.OID, depth int, reverse bool) (int, error) {
	if err := e.plan(backend.NilOID, root); err != nil {
		return e.accessed, err
	}
	if err := e.simpleDFS(root, depth, reverse); err != nil {
		return e.accessed, err
	}
	return e.finish()
}

// simpleDFS plans the visits of all references of oid depth-first for
// remaining more hops, iterating reference slots in place (no successor
// slice is materialized).
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) simpleDFS(oid backend.OID, remaining int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	obj := e.DB.Object(oid)
	if reverse {
		for _, succ := range obj.BackRef {
			if err := e.plan(oid, succ); err != nil {
				return err
			}
			if err := e.simpleDFS(succ, remaining-1, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	for _, succ := range obj.ORef {
		if succ == backend.NilOID {
			continue
		}
		if err := e.plan(oid, succ); err != nil {
			return err
		}
		if err := e.simpleDFS(succ, remaining-1, reverse); err != nil {
			return err
		}
	}
	return nil
}

// hierarchy is the hierarchy traversal: depth-first always following the
// same type of reference.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) hierarchy(root backend.OID, depth, refType int, reverse bool) (int, error) {
	if err := e.plan(backend.NilOID, root); err != nil {
		return e.accessed, err
	}
	if err := e.hierarchyDFS(root, depth, refType, reverse); err != nil {
		return e.accessed, err
	}
	return e.finish()
}

// hierarchyDFS plans the visits of the references of oid whose declared
// type is refType, depth-first for remaining more hops. Reversed, it
// follows the BackRef entries whose owning object points back at oid
// through a reference of that type. The type filter is applied in place
// while iterating, so no successor slice is materialized.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) hierarchyDFS(oid backend.OID, remaining, refType int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	obj := e.DB.Object(oid)
	if reverse {
		for _, from := range obj.BackRef {
			fobj := e.DB.Object(from)
			fclass := e.DB.Schema.Class(fobj.Class)
			matched := false
			for k, r := range fobj.ORef {
				if r == obj.OID && fclass.TRef[k] == refType {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
			if err := e.plan(oid, from); err != nil {
				return err
			}
			if err := e.hierarchyDFS(from, remaining-1, refType, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	class := e.DB.Schema.Class(obj.Class)
	for k, succ := range obj.ORef {
		if succ == backend.NilOID || class.TRef[k] != refType {
			continue
		}
		if err := e.plan(oid, succ); err != nil {
			return err
		}
		if err := e.hierarchyDFS(succ, remaining-1, refType, reverse); err != nil {
			return err
		}
	}
	return nil
}

// stochastic is the stochastic traversal: a random walk of depth steps
// where reference number N is crossed with probability p(N) = 1/2^N,
// approaching the Markov-chain access patterns of real queries
// (Tsangaris & Naughton). The geometric draw is folded modulo the number
// of available references so that every step makes progress; the walk
// stops early at objects without references.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) stochastic(root backend.OID, depth int, reverse bool) (int, error) {
	if err := e.plan(backend.NilOID, root); err != nil {
		return e.accessed, err
	}
	cur := root
	for step := 0; step < depth; step++ {
		obj := e.DB.Object(cur)
		// Count the successors in place (non-NIL forward slots, or the
		// whole BackRef list reversed) instead of materializing them.
		count := len(obj.BackRef)
		if !reverse {
			count = 0
			for _, r := range obj.ORef {
				if r != backend.NilOID {
					count++
				}
			}
		}
		if count == 0 {
			break
		}
		// Geometric draw: P(N = k) = 1/2^k, k >= 1.
		n := 1
		for e.Src.Bernoulli(0.5) {
			n++
		}
		k := (n - 1) % count
		var next backend.OID
		if reverse {
			next = obj.BackRef[k]
		} else {
			// k-th non-NIL forward slot, in slot order.
			for _, r := range obj.ORef {
				if r == backend.NilOID {
					continue
				}
				if k == 0 {
					next = r
					break
				}
				k--
			}
		}
		if err := e.plan(cur, next); err != nil {
			return e.accessed, err
		}
		cur = next
	}
	return e.finish()
}

// update modifies one object in place and commits — the update operation
// the clustering-oriented workload excludes (§3.3) and the generic
// extension (§5) restores.
func (e *Executor) update(root backend.OID) (int, error) {
	if err := e.DB.Store.Update(root); err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	return 1, e.DB.Store.Commit()
}

// insert creates one new object per the generation rules and commits.
func (e *Executor) insert() (int, error) {
	obj, err := e.DB.InsertObject(e.Src)
	if err != nil {
		return 0, err
	}
	if e.Policy != nil {
		e.Policy.ObserveRoot(obj.OID)
	}
	// The new object plus each referenced object touched for BackRef
	// maintenance.
	n := 1
	for _, r := range obj.ORef {
		if r != backend.NilOID {
			n++
		}
	}
	return n, nil
}

// delete removes the root object, repairing the graph, and commits.
func (e *Executor) delete(root backend.OID) (int, error) {
	obj := e.DB.Object(root)
	touched := 1 + len(obj.BackRef)
	if e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	if err := e.DB.DeleteObject(root); err != nil {
		return 0, err
	}
	return touched, nil
}

// scanBatch is the plan's chunk: the most visits one AccessBatch call
// covers, so neither a whole-database scan nor a long traversal pins
// store locks for its full duration.
const scanBatch = 512

// scan visits every live object in OID order — HyperModel's Sequential
// Scan, excluded from the clustering workload and restored by §5. It
// plans the database's cached ascending live-OID snapshot (not a freshly
// built slice) and observes only the first object, as the transaction's
// root.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) scan() (int, error) {
	live := e.DB.LiveOIDs()
	e.quiet = true
	for _, oid := range live {
		if err := e.plan(backend.NilOID, oid); err != nil {
			return e.accessed, err
		}
	}
	n, err := e.finish()
	if err == nil && e.Policy != nil && n > 0 {
		e.Policy.ObserveRoot(live[0])
	}
	return n, err
}

// rangeLookup visits the live objects whose OID falls within a 1%-of-NO
// window starting at the root — HyperModel's Range Lookup analogue over
// the object identifier attribute. The policy observes the root only.
//
//ocblint:allocfree -- steady-state hot path
func (e *Executor) rangeLookup(root backend.OID) (int, error) {
	width := e.DB.P.NO / 100
	if width < 1 {
		width = 1
	}
	e.quiet = true
	for i := 0; i < width; i++ {
		oid := root + backend.OID(i)
		if e.DB.Object(oid) == nil {
			continue
		}
		if err := e.plan(backend.NilOID, oid); err != nil {
			return e.accessed, err
		}
	}
	n, err := e.finish()
	if err == nil && e.Policy != nil {
		e.Policy.ObserveRoot(root)
	}
	return n, err
}
