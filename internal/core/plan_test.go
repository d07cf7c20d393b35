package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/cluster"
	"ocb/internal/lewis"
)

// recordingStore is a backend.Backend decorator that records the fault
// stream: every OID faulted by Access or AccessBatch in order (a batch
// expanded into its completed prefix), and the number of driver calls.
type recordingStore struct {
	backend.Backend
	oids  []backend.OID
	calls int
}

func (r *recordingStore) Access(oid backend.OID) error {
	r.calls++
	err := r.Backend.Access(oid)
	if err == nil {
		r.oids = append(r.oids, oid)
	}
	return err
}

func (r *recordingStore) AccessBatch(oids []backend.OID) (int, error) {
	r.calls++
	n, err := r.Backend.AccessBatch(oids)
	r.oids = append(r.oids, oids[:n]...)
	return n, err
}

// reset forgets the recorded stream.
func (r *recordingStore) reset() {
	r.oids = r.oids[:0]
	r.calls = 0
}

// refWalk is the per-object reference executor: recursive traversals that
// fault every visit with its own Access call and observe it at once. The
// planned executor must reproduce its fault stream, counts, I/Os and
// observations exactly.
type refWalk struct {
	db     *Database
	policy cluster.Policy
	src    *lewis.Source
	n      int
}

func (w *refWalk) run(tx Transaction) (int, error) {
	w.n = 0
	var err error
	switch tx.Type {
	case SetAccess:
		err = w.set(tx.Root, tx.Depth, tx.Reverse)
	case SimpleTraversal:
		if err = w.visit(backend.NilOID, tx.Root); err == nil {
			err = w.simple(tx.Root, tx.Depth, tx.Reverse)
		}
	case HierarchyTraversal:
		if err = w.visit(backend.NilOID, tx.Root); err == nil {
			err = w.hierarchy(tx.Root, tx.Depth, tx.RefType, tx.Reverse)
		}
	case StochasticTraversal:
		err = w.stochastic(tx.Root, tx.Depth, tx.Reverse)
	case ScanOp:
		for _, oid := range w.db.LiveOIDs() {
			if err = w.fault(oid); err != nil {
				break
			}
		}
		if err == nil && w.policy != nil && w.n > 0 {
			w.policy.ObserveRoot(w.db.LiveOIDs()[0])
		}
	case RangeOp:
		for i := 0; i < w.db.P.NO/100 && err == nil; i++ {
			if oid := tx.Root + backend.OID(i); w.db.Object(oid) != nil {
				err = w.fault(oid)
			}
		}
		if err == nil && w.policy != nil {
			w.policy.ObserveRoot(tx.Root)
		}
	default:
		return 0, fmt.Errorf("refWalk: unsupported %v", tx.Type)
	}
	if err == nil && w.policy != nil {
		w.policy.EndTransaction()
	}
	return w.n, err
}

func (w *refWalk) fault(oid backend.OID) error {
	if err := w.db.Store.Access(oid); err != nil {
		return err
	}
	w.n++
	return nil
}

func (w *refWalk) visit(from, to backend.OID) error {
	if err := w.fault(to); err != nil {
		return err
	}
	if w.policy != nil {
		if from == backend.NilOID {
			w.policy.ObserveRoot(to)
		} else {
			w.policy.ObserveLink(from, to)
		}
	}
	return nil
}

func (w *refWalk) set(root backend.OID, depth int, reverse bool) error {
	seen := map[backend.OID]bool{root: true}
	if err := w.visit(backend.NilOID, root); err != nil {
		return err
	}
	frontier := []backend.OID{root}
	for level := 0; level < depth && len(frontier) > 0; level++ {
		var next []backend.OID
		for _, oid := range frontier {
			succs := w.db.Object(oid).BackRef
			if !reverse {
				succs = w.db.Object(oid).ORef
			}
			for _, succ := range succs {
				if succ == backend.NilOID || seen[succ] {
					continue
				}
				seen[succ] = true
				if err := w.visit(oid, succ); err != nil {
					return err
				}
				next = append(next, succ)
			}
		}
		frontier = next
	}
	return nil
}

func (w *refWalk) simple(oid backend.OID, remaining int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	succs := w.db.Object(oid).BackRef
	if !reverse {
		succs = w.db.Object(oid).ORef
	}
	for _, succ := range succs {
		if succ == backend.NilOID {
			continue
		}
		if err := w.visit(oid, succ); err != nil {
			return err
		}
		if err := w.simple(succ, remaining-1, reverse); err != nil {
			return err
		}
	}
	return nil
}

func (w *refWalk) hierarchy(oid backend.OID, remaining, refType int, reverse bool) error {
	if remaining == 0 {
		return nil
	}
	obj := w.db.Object(oid)
	if reverse {
		for _, from := range obj.BackRef {
			fobj := w.db.Object(from)
			fclass := w.db.Schema.Class(fobj.Class)
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
			if err := w.visit(oid, from); err != nil {
				return err
			}
			if err := w.hierarchy(from, remaining-1, refType, reverse); err != nil {
				return err
			}
		}
		return nil
	}
	class := w.db.Schema.Class(obj.Class)
	for k, succ := range obj.ORef {
		if succ == backend.NilOID || class.TRef[k] != refType {
			continue
		}
		if err := w.visit(oid, succ); err != nil {
			return err
		}
		if err := w.hierarchy(succ, remaining-1, refType, reverse); err != nil {
			return err
		}
	}
	return nil
}

func (w *refWalk) stochastic(root backend.OID, depth int, reverse bool) error {
	if err := w.visit(backend.NilOID, root); err != nil {
		return err
	}
	cur := root
	for step := 0; step < depth; step++ {
		obj := w.db.Object(cur)
		var succs []backend.OID
		if reverse {
			succs = obj.BackRef
		} else {
			for _, r := range obj.ORef {
				if r != backend.NilOID {
					succs = append(succs, r)
				}
			}
		}
		if len(succs) == 0 {
			return nil
		}
		n := 1
		for w.src.Bernoulli(0.5) {
			n++
		}
		next := succs[(n-1)%len(succs)]
		if err := w.visit(cur, next); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

// planParams is a small spilling database: the buffer (paged) or read
// cache (waldisk) holds a fraction of it, so transactions fault and the
// I/O comparison means something.
func planParams(be string) Params {
	p := DefaultParams()
	p.NO = 3000
	p.SupRef = 3000
	p.BufferPages = 32
	p.Backend = be
	if be == "waldisk" {
		p.BackendOptions = map[string]string{"cachepages": "32"}
	}
	return p
}

// recordedDB generates p with its store wrapped in a recordingStore.
func recordedDB(t *testing.T, p Params) (*Database, *recordingStore) {
	t.Helper()
	db := MustGenerate(p)
	st := db.Store
	t.Cleanup(func() { _ = backend.Shutdown(st) })
	rec := &recordingStore{Backend: db.Store}
	db.Store = rec
	db.Store.DropCache()
	return db, rec
}

// planTransactions draws the equivalence workload: every read type
// forward and reversed from several roots, plus a deep simple traversal
// that spans several plan chunks.
func planTransactions(p Params) []Transaction {
	src := lewis.New(5)
	root := func() backend.OID { return backend.OID(src.IntRange(1, p.NO)) }
	var txs []Transaction
	for i := 0; i < 6; i++ {
		for _, rev := range []bool{false, true} {
			txs = append(txs,
				Transaction{Type: SetAccess, Root: root(), Depth: p.SetDepth, Reverse: rev},
				Transaction{Type: SimpleTraversal, Root: root(), Depth: p.SimDepth, Reverse: rev},
				Transaction{Type: HierarchyTraversal, Root: root(), Depth: p.HieDepth, RefType: src.IntRange(1, p.NRefT), Reverse: rev},
				Transaction{Type: StochasticTraversal, Root: root(), Depth: p.StoDepth, Reverse: rev},
			)
		}
	}
	return append(txs,
		Transaction{Type: SimpleTraversal, Root: 1, Depth: p.SimDepth + 2},
		Transaction{Type: ScanOp},
		Transaction{Type: RangeOp, Root: 100},
	)
}

// TestPlannedExecutorMatchesPerObjectWalk runs the same transactions on
// two identical databases — the per-object reference walk on one, the
// planned executor on the other — and requires the same fault stream,
// objects accessed, transaction I/Os and policy observations, while the
// executor spends at most one driver call per plan chunk.
func TestPlannedExecutorMatchesPerObjectWalk(t *testing.T) {
	for _, be := range []string{"paged", "waldisk"} {
		t.Run(be, func(t *testing.T) {
			p := planParams(be)
			refDB, refRec := recordedDB(t, p)
			planDB, planRec := recordedDB(t, p)
			refPol, planPol := &recordingPolicy{}, &recordingPolicy{}
			ref := &refWalk{db: refDB, policy: refPol, src: lewis.New(11)}
			ex := NewExecutor(planDB, planPol, lewis.New(11))
			crossed, ios := false, uint64(0)
			for i, tx := range planTransactions(p) {
				refRec.reset()
				planRec.reset()
				refPol.seen, planPol.seen = refPol.seen[:0], planPol.seen[:0]
				before := refDB.Store.DiskStats().TransactionIOs()
				want, err := ref.run(tx)
				if err != nil {
					t.Fatalf("tx %d %+v: reference: %v", i, tx, err)
				}
				refIOs := refDB.Store.DiskStats().TransactionIOs() - before
				got, err := ex.Exec(tx)
				if err != nil {
					t.Fatalf("tx %d %+v: planned: %v", i, tx, err)
				}
				if got.ObjectsAccessed != want {
					t.Fatalf("tx %d %+v: accessed %d, reference %d", i, tx, got.ObjectsAccessed, want)
				}
				if got.IOs != refIOs {
					t.Fatalf("tx %d %+v: I/Os %d, reference %d", i, tx, got.IOs, refIOs)
				}
				if !reflect.DeepEqual(planRec.oids, refRec.oids) {
					t.Fatalf("tx %d %+v: fault stream differs from the reference (%d vs %d OIDs)",
						i, tx, len(planRec.oids), len(refRec.oids))
				}
				if !reflect.DeepEqual(planPol.seen, refPol.seen) {
					t.Fatalf("tx %d %+v: observation sequence differs from the reference (%d vs %d)",
						i, tx, len(planPol.seen), len(refPol.seen))
				}
				if chunks := (want + scanBatch - 1) / scanBatch; planRec.calls > chunks {
					t.Fatalf("tx %d %+v: %d driver calls for %d visits, want at most %d", i, tx, planRec.calls, want, chunks)
				}
				if tx.Type != ScanOp && want > scanBatch {
					crossed = true
				}
				ios += refIOs
			}
			if !crossed {
				t.Fatal("no traversal crossed a plan chunk boundary")
			}
			if ios == 0 {
				t.Fatal("no transaction faulted a page: the I/O comparison is vacuous")
			}
		})
	}
}

// TestPlannedExecutorErrorPrefix deletes an object behind the database's
// back in the middle of a traversal that spans several chunks: Exec must
// report the completed prefix and the driver's ErrNoSuchObject, and the
// policy must have observed exactly that prefix.
func TestPlannedExecutorErrorPrefix(t *testing.T) {
	for _, be := range []string{"paged", "waldisk"} {
		t.Run(be, func(t *testing.T) {
			p := planParams(be)
			db, rec := recordedDB(t, p)
			tx := Transaction{Type: SimpleTraversal, Root: 1, Depth: p.SimDepth + 2}

			// The traversal's full visit and observation sequence, from the
			// reference walk before the deletion.
			full := &recordingPolicy{}
			if _, err := (&refWalk{db: db, policy: full}).run(tx); err != nil {
				t.Fatal(err)
			}
			visits := append([]backend.OID(nil), rec.oids...)
			// The victim is the first object first visited past the first
			// chunk; the prefix is everything before its first visit.
			prefix := -1
			for i := scanBatch + 1; i < len(visits) && prefix < 0; i++ {
				first := true
				for _, v := range visits[:i] {
					if v == visits[i] {
						first = false
						break
					}
				}
				if first {
					prefix = i
				}
			}
			if prefix < 0 {
				t.Fatalf("traversal of %d visits has no new object past the first chunk", len(visits))
			}
			if err := db.Store.Delete(visits[prefix]); err != nil {
				t.Fatal(err)
			}

			pol := &recordingPolicy{}
			res, err := NewExecutor(db, pol, lewis.New(1)).Exec(tx)
			if !errors.Is(err, backend.ErrNoSuchObject) {
				t.Fatalf("err = %v, want ErrNoSuchObject", err)
			}
			if res.ObjectsAccessed != prefix {
				t.Fatalf("accessed = %d, want the completed prefix %d", res.ObjectsAccessed, prefix)
			}
			if !reflect.DeepEqual(pol.seen, full.seen[:prefix]) {
				t.Fatalf("policy observed %d visits, want exactly the %d-visit prefix", len(pol.seen), prefix)
			}
		})
	}
}
