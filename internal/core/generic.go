package core

import (
	"fmt"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

// This file implements the paper's Section 5 extension: "OCB could be
// easily enhanced to become a fully generic object-oriented benchmark ...
// by extending the transaction set so that it includes a broader range of
// operations (namely operations we discarded in the first place because
// they couldn't benefit from clustering)". The discarded operations the
// paper names are creation and update operations, HyperModel's Range
// Lookup and Sequential Scan; all are provided here, plus deletion so the
// object base can reach a steady state under churn.
//
// The database tracks its live objects so workloads with insertions and
// deletions keep drawing valid victims/roots.

// initLive seeds the live-object tracking after generation.
func (db *Database) initLive() {
	db.live = make([]backend.OID, 0, db.NO())
	db.liveIdx = make(map[backend.OID]int, db.NO())
	for i := 1; i < len(db.Objects); i++ {
		if db.Objects[i] != nil {
			db.liveIdx[db.Objects[i].OID] = len(db.live)
			db.live = append(db.live, db.Objects[i].OID)
		}
	}
	db.snapMu.Lock()
	db.liveSnap = append([]backend.OID(nil), db.live...)
	db.liveSnapOK.Store(true)
	db.snapMu.Unlock()
}

// NumLive returns the number of live objects (inserts minus deletes).
func (db *Database) NumLive() int { return len(db.live) }

// LiveOIDs returns the live objects in ascending OID order. The returned
// slice is a shared snapshot maintained incrementally across insertions and
// rebuilt lazily after deletions: callers must treat it as read-only, and
// it is only guaranteed current until the next structural mutation. Scan
// transactions ride this snapshot so they no longer rebuild an O(n) slice
// per call; callers that want to reorder the result should use AllOIDs
// instead.
func (db *Database) LiveOIDs() []backend.OID {
	if db.liveSnapOK.Load() {
		return db.liveSnap
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if !db.liveSnapOK.Load() {
		// Rebuild into a fresh slice: snapshots handed out earlier stay
		// intact for their holders.
		snap := make([]backend.OID, 0, len(db.live))
		for i := 1; i < len(db.Objects); i++ {
			if db.Objects[i] != nil {
				snap = append(snap, db.Objects[i].OID)
			}
		}
		db.liveSnap = snap
		db.liveSnapOK.Store(true)
	}
	return db.liveSnap
}

// ResolveLive maps an arbitrary OID onto a live object: itself when live,
// otherwise the next live OID upward (wrapping past the highest OID to
// the lowest). It lets transaction roots drawn from the static [1, NO]
// interval stay valid under deletion. The lookup walks Objects from oid
// upward, one step per dead slot it passes, and allocates nothing; a
// search of the ascending live snapshot would have to rebuild that
// snapshot after every deletion.
//
//ocblint:allocfree -- steady-state hot path
func (db *Database) ResolveLive(oid backend.OID) (backend.OID, bool) {
	n := uint64(len(db.Objects))
	i := uint64(oid)
	for k := uint64(1); k < n; k++ { // visits each slot 1..n-1 once
		if i < 1 || i >= n {
			i = 1 // wrap past the highest OID
		}
		if o := db.Objects[i]; o != nil {
			return o.OID, true
		}
		i++
	}
	return backend.NilOID, false
}

// trackInsert registers a new live object. Callers hold the database's
// exclusive lock. OIDs are issued in increasing order, so the ascending
// snapshot extends in place without losing sortedness.
func (db *Database) trackInsert(oid backend.OID) {
	if db.liveIdx == nil {
		db.initLive()
		return
	}
	db.liveIdx[oid] = len(db.live)
	db.live = append(db.live, oid)
	db.snapMu.Lock()
	if db.liveSnapOK.Load() {
		db.liveSnap = append(db.liveSnap, oid)
	}
	db.snapMu.Unlock()
}

// trackDelete unregisters a live object (swap-remove) and invalidates the
// ascending snapshot; the next LiveOIDs call rebuilds it.
func (db *Database) trackDelete(oid backend.OID) {
	i, ok := db.liveIdx[oid]
	if !ok {
		return
	}
	last := len(db.live) - 1
	db.live[i] = db.live[last]
	db.liveIdx[db.live[i]] = i
	db.live = db.live[:last]
	delete(db.liveIdx, oid)
	db.liveSnapOK.Store(false)
}

// InsertObject creates one new object following the generation rules: its
// class is drawn via DIST3, its references via DIST4 within the reference
// interval of each target class's iterator, and BackRefs are maintained.
// The new object is placed in creation order (at the end of the heap, as
// Texas allocates) and the change is committed.
func (db *Database) InsertObject(src *lewis.Source) (*Object, error) {
	p := db.P
	classID := p.Dist3.Draw(src, 1, p.NC, len(db.Objects))
	class := db.Schema.Class(classID)
	if class == nil {
		return nil, fmt.Errorf("ocb: insert drew class %d", classID)
	}
	oid, err := db.Store.Create(class.DiskSize())
	if err != nil {
		return nil, err
	}
	if int(oid) != len(db.Objects) {
		return nil, fmt.Errorf("ocb: insert got OID %d, want %d", oid, len(db.Objects))
	}
	obj := &Object{OID: oid, Class: classID, ORef: make([]backend.OID, class.MaxNRef)}
	db.Objects = append(db.Objects, obj)
	class.Iterator = append(class.Iterator, oid)
	db.trackInsert(oid)

	for k := 0; k < class.MaxNRef; k++ {
		targetClass := db.Schema.Class(class.CRef[k])
		if targetClass == nil || len(targetClass.Iterator) == 0 {
			obj.ORef[k] = backend.NilOID
			continue
		}
		count := len(targetClass.Iterator)
		lo := clampInt(p.InfRef, 1, count)
		hi := clampInt(p.SupRef, 1, count)
		center := scaleIndex(int(oid), len(db.Objects)-1, count)
		l := p.Dist4.Draw(src, lo, hi, center)
		target := targetClass.Iterator[l-1]
		obj.ORef[k] = target
		db.Objects[target].BackRef = append(db.Objects[target].BackRef, oid)
	}
	return obj, db.Store.Commit()
}

// DeleteObject removes an object and repairs the graph: referrers' ORef
// slots become NIL, targets lose the matching BackRef entries, the class
// iterator shrinks, and the store page is updated. The change is
// committed.
func (db *Database) DeleteObject(oid backend.OID) error {
	obj := db.Object(oid)
	if obj == nil {
		return fmt.Errorf("%w: %d", backend.ErrNoSuchObject, oid)
	}
	// Forward references: drop this object from each target's BackRef.
	for _, target := range obj.ORef {
		if target == backend.NilOID {
			continue
		}
		tobj := db.Object(target)
		if tobj == nil {
			continue
		}
		for i, b := range tobj.BackRef {
			if b == oid {
				tobj.BackRef = append(tobj.BackRef[:i], tobj.BackRef[i+1:]...)
				break
			}
		}
	}
	// Backward references: NIL out one matching slot per referring entry.
	for _, from := range obj.BackRef {
		fobj := db.Object(from)
		if fobj == nil {
			continue
		}
		for k, r := range fobj.ORef {
			if r == oid {
				fobj.ORef[k] = backend.NilOID
				break
			}
		}
		if err := db.Store.Update(from); err != nil {
			return err
		}
	}
	// Class iterator.
	class := db.Schema.Class(obj.Class)
	for i, it := range class.Iterator {
		if it == oid {
			class.Iterator = append(class.Iterator[:i], class.Iterator[i+1:]...)
			break
		}
	}
	if err := db.Store.Delete(oid); err != nil {
		return err
	}
	db.Objects[oid] = nil
	db.trackDelete(oid)
	return db.Store.Commit()
}

// GenericParams returns the Section 5 "fully generic" parameterization:
// the four clustering-oriented transaction types plus the operations the
// paper initially discarded (update, insertion, deletion, sequential scan
// and range lookup), with a balanced mix.
func GenericParams() Params {
	p := DefaultParams()
	p.PSet, p.PSimple, p.PHier, p.PStoch = 0.15, 0.15, 0.15, 0.15
	p.PUpdate, p.PInsert, p.PDelete = 0.15, 0.10, 0.05
	p.PScan, p.PRange = 0.02, 0.08
	return p
}
