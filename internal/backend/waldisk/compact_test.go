package waldisk_test

// Compaction coverage: dead segments are reclaimed and survivors
// relocated without changing the committed state, recovery handles the
// segment-number gaps compaction leaves behind, a crash torn mid-rewrite
// loses nothing and resurrects nothing, and the disk footprint plateaus
// under sustained update churn instead of growing with history.

import (
	"path/filepath"
	"testing"
	"time"

	"ocb/internal/backend"
	"ocb/internal/backend/waldisk"
)

// openCompact opens a store tuned for deterministic compaction tests:
// tiny segments so rounds have victims, and an effectively disabled
// background ticker so only explicit CompactNow calls move anything. The
// ratio stays at the 0.5 default: mostly-dead segments qualify,
// fully-live ones (like a fresh rewrite batch) never do, so
// compactUntilDry terminates.
func openCompact(t *testing.T, dir string) *waldisk.Store {
	t.Helper()
	return openAt(t, dir, map[string]string{
		"segsize": "512", "fsync": "always", "compactevery": "1h",
	}).(*waldisk.Store)
}

// populateBatches creates n objects committing every batch-th, so the
// creates spread across many tiny segments instead of one oversized
// batch (a commit batch never spans segments).
func populateBatches(t *testing.T, s *waldisk.Store, n, batch int) []backend.OID {
	t.Helper()
	oids := make([]backend.OID, 0, n)
	for i := 0; i < n; i++ {
		oid, err := s.Create(100)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
		if (i+1)%batch == 0 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

// compactUntilDry runs CompactNow until a round finds no victim,
// returning the number of segments reclaimed.
func compactUntilDry(t *testing.T, s *waldisk.Store) int {
	t.Helper()
	n := 0
	for {
		did, err := s.CompactNow()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			return n
		}
		n++
	}
}

// segFiles counts wal-*.log files physically present in dir.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// TestCompactReclaimsDeadSegments fills several segments, kills their
// contents with updates, and checks that compaction deletes the dead
// files while every object stays readable with its current version.
func TestCompactReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populateBatches(t, s, 60, 10) // six ~267-byte segments of creates
	for _, oid := range oids {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	reclaimed := compactUntilDry(t, s)
	if reclaimed == 0 {
		t.Fatal("no segment reclaimed despite fully dead prefixes")
	}
	if after := segFiles(t, dir); after != before-reclaimed {
		t.Fatalf("reclaimed %d segments but files went %d -> %d", reclaimed, before, after)
	}
	s.ResetStats()
	for _, oid := range oids {
		if err := s.Access(oid); err != nil {
			t.Fatalf("Access(%d) after compaction: %v", oid, err)
		}
	}
	if got := s.Stats().Objects; got != len(oids) {
		t.Fatalf("object count changed across compaction: %d", got)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactChargesClusteringIO pins the I/O taxonomy: the rewrite
// batches compaction issues are store maintenance, charged to the
// clustering class, never to the caller's transaction counters.
func TestCompactChargesClusteringIO(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populateBatches(t, s, 60, 10)
	// Kill everything but the first object: the oldest segment is mostly
	// dead but keeps one survivor, so reclaiming it must rewrite.
	for _, oid := range oids[1:] {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if n := compactUntilDry(t, s); n == 0 {
		t.Fatal("nothing compacted")
	}
	ds := s.DiskStats()
	if ds.Writes[1] == 0 { // disk.Clustering
		t.Fatal("compaction rewrites charged no clustering writes")
	}
	if ds.Writes[0] != 0 {
		t.Fatalf("compaction leaked %d writes into the transaction class", ds.Writes[0])
	}
}

// TestCompactReopen closes a compacted store (whose segment numbering now
// has gaps) and recovers it both ways: from the clean-close checkpoint
// and by full log replay over the surviving segments.
func TestCompactReopen(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populateBatches(t, s, 60, 10)
	for _, oid := range oids {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(oids[7]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := compactUntilDry(t, s); n == 0 {
		t.Fatal("nothing compacted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(s2 *waldisk.Store) {
		t.Helper()
		if got := s2.Stats().Objects; got != len(oids)-1 {
			t.Fatalf("recovered %d objects, want %d", got, len(oids)-1)
		}
		if s2.Exists(oids[7]) {
			t.Fatal("deleted object resurrected after compaction + recovery")
		}
		for i, oid := range oids {
			if i == 7 {
				continue
			}
			if err := s2.Access(oid); err != nil {
				t.Fatalf("Access(%d): %v", oid, err)
			}
		}
		if err := s2.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}

	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	if !s2.Recovery().FromCheckpoint {
		t.Fatal("clean reopen did not use the checkpoint")
	}
	check(s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Full replay across the gap: the surviving segments alone rebuild
	// the same state.
	if err := removeCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	rb2, err := s2.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s3 := rb2.(*waldisk.Store)
	defer s3.Close()
	if s3.Recovery().FromCheckpoint {
		t.Fatal("recovery claims a checkpoint that was removed")
	}
	check(s3)
}

// TestCompactNeverResurrects is the tombstone-drop safety argument as a
// test: a create in the oldest segment dies to a later tombstone, both
// segments get compacted away, and full replay of what remains must not
// bring the object back.
func TestCompactNeverResurrects(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populateBatches(t, s, 60, 10)
	dead := oids[:5]
	for _, oid := range dead {
		if err := s.Delete(oid); err != nil {
			t.Fatal(err)
		}
	}
	// Touch every survivor so old segments are mostly dead bytes.
	for _, oid := range oids[5:] {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := compactUntilDry(t, s); n == 0 {
		t.Fatal("nothing compacted")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := removeCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	defer s2.Close()
	for _, oid := range dead {
		if s2.Exists(oid) {
			t.Fatalf("object %d resurrected: its tombstone was dropped while an older create survived", oid)
		}
	}
	if got := s2.Stats().Objects; got != len(oids)-len(dead) {
		t.Fatalf("replayed %d objects, want %d", got, len(oids)-len(dead))
	}
	// Even with the dead objects' creates AND tombstones gone from the
	// log, the OID counter must not regress and reissue their OIDs.
	next, err := s2.Create(64)
	if err != nil {
		t.Fatal(err)
	}
	if next != backend.OID(len(oids)+1) {
		t.Fatalf("OID counter regressed across compaction + replay: issued %d, want %d", next, len(oids)+1)
	}
	if err := s2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactCrashMidRewrite tears the power during the survivor-rewrite
// batch. The victim file is only deleted after the rewrite is durable, so
// recovery must surface every committed object at its pre-compaction
// version — nothing lost, nothing resurrected, nothing doubled.
func TestCompactCrashMidRewrite(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populateBatches(t, s, 60, 10)
	// oids[0] is the lone survivor in the oldest segment; oids[10] dies to
	// a tombstone; everything else moves to the head via updates.
	if err := s.Delete(oids[10]); err != nil {
		t.Fatal(err)
	}
	for _, oid := range oids[1:10] {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range oids[11:] {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	s.FailureHook = cutAfter(11) // tear inside the survivor-rewrite batch
	if _, err := s.CompactNow(); err == nil {
		t.Fatal("compaction through a torn append reported success")
	}
	// The tear poisons the store like any failed append: the log's
	// physical tail is unknown until recovery.
	if _, err := s.Create(64); err == nil {
		t.Fatal("create accepted after a torn compaction rewrite")
	}
	if got := segFiles(t, dir); got < 7 {
		t.Fatalf("victim deleted despite the torn rewrite: %d segment files left", got)
	}

	r := reopen(t, dir, nil)
	if got := r.Recovery().TailBytesTruncated; got == 0 {
		t.Fatal("recovery truncated nothing; the tear never hit the disk")
	}
	if got := r.Stats().Objects; got != len(oids)-1 {
		t.Fatalf("recovered %d objects, want %d", got, len(oids)-1)
	}
	if r.Exists(oids[10]) {
		t.Fatal("deleted object resurrected by the torn rewrite")
	}
	for i, oid := range oids {
		if i == 10 {
			continue
		}
		if err := r.Access(oid); err != nil {
			t.Fatalf("Access(%d) after torn compaction: %v", oid, err)
		}
	}
	if err := r.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactFootprintPlateau is the point of the whole subsystem: under
// sustained update churn the log's disk footprint must plateau at a small
// multiple of the live data, not grow linearly with history.
func TestCompactFootprintPlateau(t *testing.T) {
	dir := t.TempDir()
	s := openCompact(t, dir)
	oids := populate(t, s, 40)
	var peak int64
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for _, oid := range oids {
			if err := s.Update(oid); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		compactUntilDry(t, s)
		if b := s.SegmentBytes(); b > peak {
			peak = b
		}
	}
	// ~50 rounds x 40 updates x 25 bytes ≈ 50KB of history; the live set
	// is ~1KB. The plateau bound is generous — a handful of segments —
	// but linear growth blows through it immediately.
	const bound = 8 * 512
	if peak > bound {
		t.Fatalf("disk footprint peaked at %d bytes over %d churn rounds, want <= %d", peak, rounds, bound)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactDisabled pins the escape hatch: compact=off builds no
// compactor and CompactNow declines to run.
func TestCompactDisabled(t *testing.T) {
	s := openAt(t, t.TempDir(), map[string]string{"compact": "off", "segsize": "512"}).(*waldisk.Store)
	oids := populate(t, s, 60)
	for _, oid := range oids {
		if err := s.Update(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if did, err := s.CompactNow(); err != nil || did {
		t.Fatalf("CompactNow with compaction off = (%v, %v), want (false, nil)", did, err)
	}
}

// TestCompactBackground smokes the real deployment shape: a fast ticker
// reclaims churned segments on its own goroutine while the foreground
// keeps committing. Also the -race gate for compaction against readers.
func TestCompactBackground(t *testing.T) {
	dir := t.TempDir()
	s := openAt(t, dir, map[string]string{
		"segsize": "512", "compactevery": "2ms",
	}).(*waldisk.Store)
	oids := populate(t, s, 40)
	for r := 0; r < 30; r++ {
		for _, oid := range oids {
			if err := s.Update(oid); err != nil {
				t.Fatal(err)
			}
			if err := s.Access(oid); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The ticker owns reclamation: wait out its passes until one reclaims
	// nothing, after which the idle store cannot change. The first pass
	// seen may have started before the last commit, so it does not count.
	// A compactor that stalls or never settles fails on the byte bound
	// below: the wait gives up after maxPasses passes or half a minute
	// without one.
	const maxPasses = 500
	for pass := 0; pass < maxPasses; pass++ {
		reclaimed, ok := s.NextCompactPass(30 * time.Second)
		if !ok || (pass > 0 && !reclaimed) {
			break
		}
	}
	if b := s.SegmentBytes(); b > 8*512 {
		t.Fatalf("background compactor left %d bytes of segments", b)
	}
	for _, oid := range oids {
		if err := s.Access(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And the compacted, gappy directory recovers.
	rb, err := s.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s2 := rb.(*waldisk.Store)
	defer s2.Close()
	if got := s2.Stats().Objects; got != len(oids) {
		t.Fatalf("reopened %d objects, want %d", got, len(oids))
	}
	if err := s2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
