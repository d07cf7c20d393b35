package waldisk_test

// AccessBatch reads its cache misses in file order, not batch order. These
// tests pin what that must not change: every batch shape charges exactly
// the counters of the twin one-at-a-time Access sequence, a corrupt record
// fails the batch at the lowest failing batch index whatever its place in
// the file, and the physical preads really are coalesced.

import (
	"cmp"
	"math/rand/v2"
	"os"
	"slices"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/backend/waldisk"
)

// batchStore opens a store whose log does not follow OID order: objects
// are created in several commits, then every third one is updated, which
// moves its record to the log head. Compaction is off so twin stores keep
// identical logs.
func batchStore(t *testing.T, opts map[string]string) (*waldisk.Store, []backend.OID) {
	t.Helper()
	all := map[string]string{"compact": "off"}
	for k, v := range opts {
		all[k] = v
	}
	s := openAt(t, t.TempDir(), all).(*waldisk.Store)
	var oids []backend.OID
	for c := 0; c < 6; c++ {
		oids = append(oids, populate(t, s, 50)...)
	}
	for i := 0; i < len(oids); i += 3 {
		if err := s.Update(oids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	s.ResetStats()
	return s, oids
}

// accessSeq is the reference: Access each OID in order, stopping at the
// first failure, and report the completed prefix.
func accessSeq(s *waldisk.Store, oids []backend.OID) (int, error) {
	for i, oid := range oids {
		if err := s.Access(oid); err != nil {
			return i, err
		}
	}
	return len(oids), nil
}

// batchCounters is everything an Access sequence and its batch must agree
// on: read I/Os, objects accessed and the read cache's transitions.
type batchCounters struct {
	reads, objects, hits, misses, evictions uint64
}

func countersOf(s *waldisk.Store) batchCounters {
	st := s.Stats()
	return batchCounters{
		reads:     st.Disk.TotalReads(),
		objects:   st.ObjectsAccessed,
		hits:      st.Pool.Hits,
		misses:    st.Pool.Misses,
		evictions: st.Pool.Evictions,
	}
}

// inFileOrder returns oids sorted by their records' place in the log.
func inFileOrder(t *testing.T, s *waldisk.Store, oids []backend.OID) []backend.OID {
	t.Helper()
	type loc struct {
		oid  backend.OID
		path string
		off  int64
	}
	locs := make([]loc, len(oids))
	for i, oid := range oids {
		path, off, _, ok := s.RecordLocation(oid)
		if !ok {
			t.Fatalf("object %d has no record", oid)
		}
		locs[i] = loc{oid, path, off}
	}
	slices.SortFunc(locs, func(a, b loc) int {
		if c := cmp.Compare(a.path, b.path); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	out := make([]backend.OID, len(locs))
	for i, l := range locs {
		out[i] = l.oid
	}
	return out
}

// shuffled returns a seeded permutation of oids.
func shuffled(oids []backend.OID, seed uint64) []backend.OID {
	out := slices.Clone(oids)
	rand.New(rand.NewPCG(seed, seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// withRepeats appends every seventh OID of batch again, so duplicates
// recur both close together and far apart.
func withRepeats(batch []backend.OID) []backend.OID {
	out := slices.Clone(batch)
	for i := 0; i < len(batch); i += 7 {
		out = append(out, batch[i])
	}
	return out
}

// TestBatchOrderMatchesAccess runs shuffled and reversed batches, with
// repeats, against twin stores: the batch must charge exactly the reads,
// objects and cache hits, misses and evictions of the Access sequence,
// cold and then again warm. cachepages=1 forces evictions mid-batch;
// cachepages=0 has no cache, so every repeat pays its read again.
func TestBatchOrderMatchesAccess(t *testing.T) {
	for _, cachePages := range []string{"", "1", "0"} {
		for _, shape := range []string{"shuffled", "reversed"} {
			t.Run("cachepages="+cachePages+"/"+shape, func(t *testing.T) {
				var opts map[string]string
				if cachePages != "" {
					opts = map[string]string{"cachepages": cachePages}
				}
				seq, oids := batchStore(t, opts)
				bat, _ := batchStore(t, opts)
				batch := shuffled(oids, 7)
				if shape == "reversed" {
					batch = inFileOrder(t, bat, oids)
					slices.Reverse(batch)
				}
				batch = withRepeats(batch)
				for round := 0; round < 2; round++ {
					if k, err := accessSeq(seq, batch); err != nil || k != len(batch) {
						t.Fatalf("round %d: Access sequence stopped at %d: %v", round, k, err)
					}
					if k, err := bat.AccessBatch(batch); err != nil || k != len(batch) {
						t.Fatalf("round %d: AccessBatch stopped at %d: %v", round, k, err)
					}
					want, got := countersOf(seq), countersOf(bat)
					if got != want {
						t.Fatalf("round %d: batch counters %+v, Access sequence %+v", round, got, want)
					}
					if cachePages == "0" && got.reads != uint64((round+1)*len(batch)) {
						t.Fatalf("round %d: no cache charged %d reads, want %d (repeats included)", round, got.reads, (round+1)*len(batch))
					}
				}
				if cachePages == "1" && countersOf(bat).evictions == 0 {
					t.Fatal("a one-page cache evicted nothing; the test lost its eviction case")
				}
			})
		}
	}
}

// corruptRecord flips the last byte of oid's committed record, so its
// CRC check fails.
func corruptRecord(t *testing.T, s *waldisk.Store, oid backend.OID) {
	t.Helper()
	path, off, rlen, ok := s.RecordLocation(oid)
	if !ok {
		t.Fatalf("object %d has no record", oid)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	at := off + int64(rlen) - 1
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

// residency probes every object once, in order, and records which ones
// paid a read: two stores with the same cache contents give the same
// answers. (Probing installs misses, so it is the last thing a test
// does.)
func residency(s *waldisk.Store, oids []backend.OID) []uint64 {
	out := make([]uint64, len(oids))
	for i, oid := range oids {
		before := s.DiskStats().TotalReads()
		if err := s.Access(oid); err != nil {
			out[i] = ^uint64(0)
			continue
		}
		out[i] = s.DiskStats().TotalReads() - before
	}
	return out
}

// TestBatchCorruptLowestIndexFails corrupts records whose batch position
// and file position disagree. The batch is in reverse file order, so its
// early entries are read last: the failure must still be the lowest
// failing batch index, with the Access sequence's prefix, error, read
// charge and cache residency.
func TestBatchCorruptLowestIndexFails(t *testing.T) {
	cases := []struct {
		name    string
		corrupt []int // batch positions to corrupt
		want    int   // expected completed prefix
	}{
		{"early index late offset", []int{2}, 2},
		{"late index early offset", []int{-3}, -3},
		{"both", []int{2, -3}, 2},
	}
	for _, cachePages := range []string{"", "0"} {
		for _, tc := range cases {
			t.Run("cachepages="+cachePages+"/"+tc.name, func(t *testing.T) {
				var opts map[string]string
				if cachePages != "" {
					opts = map[string]string{"cachepages": cachePages}
				}
				seq, oids := batchStore(t, opts)
				bat, _ := batchStore(t, opts)
				batch := inFileOrder(t, bat, oids)
				slices.Reverse(batch)
				at := func(p int) int {
					if p < 0 {
						return len(batch) + p
					}
					return p
				}
				for _, p := range tc.corrupt {
					corruptRecord(t, seq, batch[at(p)])
					corruptRecord(t, bat, batch[at(p)])
				}
				wantK, wantErr := accessSeq(seq, batch)
				gotK, gotErr := bat.AccessBatch(batch)
				if wantK != at(tc.want) || wantErr == nil {
					t.Fatalf("reference Access sequence stopped at %d (%v), want %d with an error", wantK, wantErr, at(tc.want))
				}
				if gotK != wantK || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("AccessBatch = %d, %v; Access sequence = %d, %v", gotK, gotErr, wantK, wantErr)
				}
				w, g := countersOf(seq), countersOf(bat)
				if g.reads != w.reads || g.objects != w.objects {
					t.Fatalf("batch charged %d reads and %d objects, Access sequence %d and %d", g.reads, g.objects, w.reads, w.objects)
				}
				if cachePages == "" && !slices.Equal(residency(bat, oids), residency(seq, oids)) {
					t.Fatal("cache residency after the failed batch differs from the Access sequence's")
				}
			})
		}
	}
}

// TestBatchPreadsCoalesce shuffles a batch of small adjacent records and
// counts the physical preads: in file order they merge into spans, so
// each segment costs at most ceil(span bytes / SpanReadSize) preads
// however scrambled the batch is. Every record is still charged its read.
func TestBatchPreadsCoalesce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		segsize   string
		perCommit int
	}{
		{"one segment", "", 512},
		{"many segments", "4096", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := map[string]string{"cachepages": "0", "compact": "off"}
			if tc.segsize != "" {
				opts["segsize"] = tc.segsize
			}
			s := openAt(t, t.TempDir(), opts).(*waldisk.Store)
			var oids []backend.OID
			for len(oids) < 512 {
				oids = append(oids, populate(t, s, tc.perCommit)...)
			}
			batch := shuffled(oids, 3)
			lo, hi := map[string]int64{}, map[string]int64{}
			for _, oid := range batch {
				path, off, rlen, _ := s.RecordLocation(oid)
				if l, ok := lo[path]; !ok || off < l {
					lo[path] = off
				}
				hi[path] = max(hi[path], off+int64(rlen))
			}
			s.ResetStats()
			counts, restore := waldisk.CountBatchPreads()
			defer restore()
			if k, err := s.AccessBatch(batch); err != nil || k != len(batch) {
				t.Fatalf("AccessBatch = %d, %v", k, err)
			}
			if r := s.DiskStats().TotalReads(); r != uint64(len(batch)) {
				t.Fatalf("charged %d reads, want %d", r, len(batch))
			}
			got := counts()
			if len(got) != len(lo) {
				t.Fatalf("preads touched %d segments, the batch lives in %d", len(got), len(lo))
			}
			for path, n := range got {
				bound := int((hi[path] - lo[path] + waldisk.SpanReadSize - 1) / waldisk.SpanReadSize)
				if n > bound {
					t.Errorf("segment %s: %d preads for %d span bytes, want at most %d", path, n, hi[path]-lo[path], bound)
				}
			}
		})
	}
}

// TestBatchPreadsHoldNoCacheShard checks the lock discipline of the
// bracketed first pass: every read-cache shard is released before the
// first pread, with and without a pending overlay (the store mutex path).
func TestBatchPreadsHoldNoCacheShard(t *testing.T) {
	s, oids := batchStore(t, nil)
	var preads, held int
	restore := waldisk.CheckBatchPreads(func() {
		preads++
		if !s.CacheShardsFree() {
			held++
		}
	})
	defer restore()
	for _, staged := range []bool{false, true} {
		if staged {
			if err := s.Update(oids[1]); err != nil { // pending until Commit
				t.Fatal(err)
			}
		}
		s.DropCache()
		batch := shuffled(oids, 9)
		if k, err := s.AccessBatch(batch); err != nil || k != len(batch) {
			t.Fatalf("AccessBatch = %d, %v", k, err)
		}
	}
	if preads == 0 || held != 0 {
		t.Fatalf("%d of %d batch preads ran with a cache shard held", held, preads)
	}
}

// TestBatchMissAllocFree pins a cold, shuffled 512-object AccessBatch at
// zero allocations: with the cache off every object is a miss, so this is
// the sort, span and CRC path on every run.
func TestBatchMissAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation counts are not meaningful")
	}
	s := openAt(t, t.TempDir(), map[string]string{"cachepages": "0", "compact": "off"}).(*waldisk.Store)
	batch := shuffled(populate(t, s, 512), 5)
	if n := testing.AllocsPerRun(100, func() {
		if k, err := s.AccessBatch(batch); err != nil || k != len(batch) {
			t.Fatalf("AccessBatch = %d, %v", k, err)
		}
	}); n != 0 {
		t.Fatalf("cold AccessBatch of %d objects allocates %.1f per run, want 0", len(batch), n)
	}
}
