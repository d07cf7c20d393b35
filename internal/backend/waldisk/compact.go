package waldisk

import (
	"os"
	"sort"
	"time"

	"ocb/internal/backend"
	"ocb/internal/disk"
)

// Background segment compaction. Updates and deletes never overwrite in a
// log-structured store, so segments accumulate dead records and disk
// grows without bound. The compactor reclaims it: when the oldest sealed
// segment's live bytes fall under the compact ratio, its surviving
// records are rewritten as one fsynced batch at the log head, a snapshot
// relocating them is published, and the segment file is deleted once
// every in-flight reader drains (readGate).
//
// Only the oldest live segment is ever the victim. That ordering rule is
// what makes dropping its tombstones safe without scanning any other
// file: a tombstone resurrects an object only if an older record for the
// OID survives it, and the oldest segment has nothing older. Rewrites go
// through the normal append path under logMu, so replay order equals
// version order, and the batch is always fsynced before the victim
// disappears — whatever the fsync policy, reclamation must never leave
// the new copies less durable than the file it deletes.
//
// The work runs in its own goroutine on a ticker, not inline with
// commits, so its cost surfaces where a real LSM's does: as tail latency
// on the foreground ops it contends with.

const (
	// DefaultCompactRatio is the live-byte fraction under which a sealed
	// segment is compacted.
	DefaultCompactRatio = 0.5
	// DefaultCompactEvery is the background compactor's scan period.
	DefaultCompactEvery = 200 * time.Millisecond
)

// compactor is the background compaction goroutine.
func (s *Store) compactor() {
	defer s.wg.Done()
	t := time.NewTicker(s.compactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quitCh:
			return
		case <-t.C:
			reclaimed, _ := s.CompactNow()
			select {
			case s.compactPass <- reclaimed:
			default:
			}
		}
	}
}

// CompactNow runs one compaction round synchronously and reports whether
// a segment was reclaimed. The background goroutine calls it on every
// tick; tests call it directly for deterministic reclamation. Rounds are
// serialized (compactMu); a round that finds no qualifying victim is a
// cheap no-op.
func (s *Store) CompactNow() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.compactRatio <= 0 {
		return false, nil
	}

	// Pick the victim under logMu: the oldest live segment, never the
	// append target.
	s.logMu.Lock()
	victim := uint32(0)
	for i := 0; i+1 < len(s.segs); i++ {
		if s.segs[i] != nil {
			victim = uint32(i + 1)
			break
		}
	}
	if victim == 0 {
		s.logMu.Unlock()
		return false, nil
	}
	live, size := s.segLive[victim-1], s.segBytes[victim-1]
	s.logMu.Unlock()
	if live > 0 && float64(live) >= s.compactRatio*float64(size) {
		return false, nil
	}

	// Scan for the victim's survivors without holding logMu — flatten
	// walks the whole index. Records only ever move OUT of a sealed
	// segment, so this set is a superset of the final one; each candidate
	// is re-resolved under logMu below.
	oids := make([]backend.OID, 0, 64)
	for oid, e := range s.snap.Load().flatten() {
		if e.seg == victim {
			oids = append(oids, oid)
		}
	}
	// Deterministic rewrite order: the log's contents stay a pure
	// function of the operation history, not of map iteration.
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })

	s.logMu.Lock()
	s.mu.RLock()
	bad := s.err != nil || s.closing || s.closed
	s.mu.RUnlock()
	if bad {
		s.logMu.Unlock()
		return false, nil
	}

	prev := s.snap.Load()
	type moveRec struct {
		oid backend.OID
		e   entry
	}
	moves := make([]moveRec, 0, len(oids))
	for _, oid := range oids {
		if e, ok := prev.resolve(oid); ok && e.seg == victim {
			moves = append(moves, moveRec{oid, e})
		}
	}

	var delta map[backend.OID]entry
	if len(moves) > 0 {
		// Rewrite the survivors as one committed batch at the log head.
		const rlen = frameHeader + 17 // every rewrite record is a create
		need := frameHeader + 9 + len(moves)*rlen
		if s.curOff > 0 && s.curOff+int64(need) > s.segSize {
			if _, err := s.addSegment(); err != nil {
				s.logMu.Unlock()
				return false, s.fail(err)
			}
		}
		segID := uint32(len(s.segs))
		cur := s.segs[segID-1]
		base := s.curOff

		s.commitSeq++
		buf := s.encBuf[:0]
		for _, m := range moves {
			buf = appendOp(buf, stagedOp{op: opCreate, oid: m.oid, size: m.e.size})
		}
		buf = appendCommit(buf, s.commitSeq)
		s.encBuf = buf

		if err := s.append(cur, buf); err != nil {
			s.logMu.Unlock()
			return false, s.fail(err)
		}
		// The victim disappears after this round: its survivors must be
		// durable in their new home first, whatever the fsync policy.
		if err := cur.Sync(); err != nil {
			s.logMu.Unlock()
			return false, s.fail(err)
		}
		s.curOff += int64(len(buf))
		s.segBytes[segID-1] += int64(len(buf))
		// Compaction I/O is store maintenance, not transaction work: it is
		// charged to the clustering/overhead class regardless of the
		// caller's current class, so reports price it separately.
		s.writes[disk.Clustering].Add(1)

		delta = make(map[backend.OID]entry, len(moves))
		off := base
		for _, m := range moves {
			delta[m.oid] = entry{size: m.e.size, seg: segID, off: off, rlen: rlen}
			off += int64(rlen)
		}
		s.meterDelta(prev, delta, nil)
	}

	// Retire the victim: drop it from the live segment table and publish
	// a snapshot that relocates the survivors and no longer references
	// the file. prev is still the head — flushes serialize on logMu.
	vf := s.segs[victim-1]
	s.segs[victim-1] = nil
	s.segLive[victim-1] = 0
	s.segBytes[victim-1] = 0
	node := &snapshot{
		delta:  delta,
		base:   prev,
		segs:   append([]*os.File(nil), s.segs...),
		count:  prev.count,
		weight: len(delta),
	}
	node.mergeUp()
	s.snap.Store(node)
	s.logMu.Unlock()

	// Wait out every reader that could still hold a pre-publish snapshot,
	// then delete the file. Failures here leak a dead file, not data —
	// they are reported but never sticky.
	s.gate.drain()
	err := vf.Close()
	if rerr := os.Remove(s.segPath(victim)); err == nil {
		err = rerr
	}
	if serr := s.syncDir(); err == nil {
		err = serr
	}
	return true, err
}

// meterDelta maintains the per-segment live-byte meters for a published
// delta: each relocated object's bytes move from its previous home to
// its new one, and each tombstoned object's bytes die. Caller holds
// logMu.
func (s *Store) meterDelta(prev *snapshot, delta map[backend.OID]entry, dels map[backend.OID]struct{}) {
	for oid, e := range delta {
		if pe, ok := prev.resolve(oid); ok {
			s.segLive[pe.seg-1] -= int64(pe.rlen)
		}
		s.segLive[e.seg-1] += int64(e.rlen)
	}
	for oid := range dels {
		if _, moved := delta[oid]; moved {
			continue
		}
		if pe, ok := prev.resolve(oid); ok {
			s.segLive[pe.seg-1] -= int64(pe.rlen)
		}
	}
}

// SegmentBytes reports the total size in bytes of the live segment files
// — the store's disk footprint, which compaction keeps bounded. Tests
// assert it plateaus under sustained update churn.
func (s *Store) SegmentBytes() int64 {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	var total int64
	for i, f := range s.segs {
		if f != nil {
			total += s.segBytes[i]
		}
	}
	return total
}
