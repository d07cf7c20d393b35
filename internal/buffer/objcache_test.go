package buffer

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestObjectCacheConstruction pins the constructor contract: non-positive
// budgets are refused (callers disable caching by not building one), the
// shard count rounds down to a power of two, and the per-shard budgets sum
// back to the requested total.
func TestObjectCacheConstruction(t *testing.T) {
	for _, bad := range []int64{0, -1} {
		if _, err := NewObjectCache(bad, 4); !errors.Is(err, ErrZeroCapacity) {
			t.Fatalf("NewObjectCache(%d): err = %v, want ErrZeroCapacity", bad, err)
		}
	}
	for _, tc := range []struct {
		shards, want int
	}{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 2}, {7, 4}, {8, 8}} {
		c, err := NewObjectCache(1<<20, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.NumShards(); got != tc.want {
			t.Fatalf("shards=%d normalized to %d, want %d", tc.shards, got, tc.want)
		}
		if got := c.Budget(); got != 1<<20 {
			t.Fatalf("shard budgets sum to %d, want %d", got, 1<<20)
		}
	}
	// A budget smaller than the shard count caps the shard count.
	c, err := NewObjectCache(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumShards(); got != 2 {
		t.Fatalf("budget=3 shards=8 normalized to %d shards, want 2", got)
	}
}

// TestObjectCacheProbeAdd covers the hit/miss accounting on the read hot
// path: a probe before Add is a miss, after Add a hit, and re-adding a
// resident key refreshes it without touching the counters.
func TestObjectCacheProbeAdd(t *testing.T) {
	c, err := NewObjectCache(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Probe(7) {
		t.Fatal("probe hit on an empty cache")
	}
	c.Add(7, 100)
	if !c.Probe(7) {
		t.Fatal("probe miss after Add")
	}
	if got := c.Bytes(); got != 100 {
		t.Fatalf("Bytes = %d after one 100-byte Add, want 100", got)
	}
	c.Add(7, 250) // resident re-add: size refresh, no counter change
	if got := c.Bytes(); got != 250 {
		t.Fatalf("Bytes = %d after size refresh, want 250", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 evictions", st)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
}

// TestObjectCacheLRU drives a single shard past its budget and checks
// strict LRU order: the coldest key goes first, and a probe refreshes
// recency so the probed key survives the next eviction.
func TestObjectCacheLRU(t *testing.T) {
	c, err := NewObjectCache(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 100)
	c.Add(2, 100)
	c.Add(3, 100)
	c.Probe(1) // refresh 1; cold order is now 2, 3, 1
	c.Add(4, 100)
	if c.Probe(2) {
		t.Fatal("coldest key 2 survived past-budget Add")
	}
	for _, want := range []uint64{3, 1, 4} {
		if !c.Probe(want) {
			t.Fatalf("key %d evicted out of LRU order", want)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if got := c.Bytes(); got != 300 {
		t.Fatalf("Bytes = %d after eviction back under budget, want 300", got)
	}
}

// lruModel is the reference the cache is checked against: one strict
// LRU over a byte budget, kept as a plain MRU-first slice.
type lruModel struct {
	keys   []uint64 // MRU first
	sizes  map[uint64]int64
	bytes  int64
	budget int64
	stats  Stats
}

func (m *lruModel) index(key uint64) int {
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (m *lruModel) front(i int) {
	k := m.keys[i]
	copy(m.keys[1:i+1], m.keys[:i])
	m.keys[0] = k
}

func (m *lruModel) drop(i int) {
	m.bytes -= m.sizes[m.keys[i]]
	delete(m.sizes, m.keys[i])
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
}

func (m *lruModel) probe(key uint64) bool {
	i := m.index(key)
	if i < 0 {
		m.stats.Misses++
		return false
	}
	m.stats.Hits++
	m.front(i)
	return true
}

func (m *lruModel) add(key uint64, size int64) {
	if i := m.index(key); i >= 0 {
		m.bytes += size - m.sizes[key]
		m.front(i)
	} else {
		m.keys = append([]uint64{key}, m.keys...)
		m.bytes += size
	}
	m.sizes[key] = size
	for m.bytes > m.budget && len(m.keys) > 1 {
		m.stats.Evictions++
		m.drop(len(m.keys) - 1)
	}
}

// checkIndex verifies a shard's key index: every resident node sits in a
// slot reachable from its home by an unbroken probe run, and the index
// holds exactly the LRU list's nodes.
func checkIndex(t *testing.T, sh *cacheShard) {
	t.Helper()
	mask := len(sh.slots) - 1
	used := 0
	for j, s := range sh.slots {
		if s.node == nil {
			continue
		}
		used++
		if s.node.key != s.key {
			t.Fatalf("slot %d holds key %d for node %d", j, s.key, s.node.key)
		}
		for i := sh.home(s.key); i != j; i = (i + 1) & mask {
			if sh.slots[i].node == nil {
				t.Fatalf("key %d at slot %d is cut off from its home %d by empty slot %d", s.key, j, sh.home(s.key), i)
			}
		}
	}
	listed := 0
	for n := sh.lru.next; n != &sh.lru; n = n.next {
		listed++
		if i, ok := sh.find(n.key); !ok || sh.slots[i].node != n {
			t.Fatalf("resident key %d not found in the index", n.key)
		}
	}
	if used != sh.n || listed != sh.n || 2*sh.n > len(sh.slots) {
		t.Fatalf("index holds %d slots, LRU list %d, count %d, table %d", used, listed, sh.n, len(sh.slots))
	}
}

// TestObjectCacheModel runs a long random Probe/Add/Invalidate/DropAll
// stream through a one-shard cache and the reference LRU. Every probe,
// the counters, the bytes and the full recency order must agree, and the
// key index must stay consistent as it grows, churns and is reset. Keys
// mix a dense range with widely strided ones so probe runs collide and
// wrap around the table's end.
func TestObjectCacheModel(t *testing.T) {
	const budget = 20000
	c, err := NewObjectCache(budget, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &lruModel{sizes: map[uint64]int64{}, budget: budget}
	sh := &c.shards[0]
	rng := rand.New(rand.NewPCG(5, 8))
	for step := 0; step < 100000; step++ {
		key := rng.Uint64N(1024)
		if rng.IntN(4) == 0 {
			key = rng.Uint64N(64) << 32
		}
		switch r := rng.IntN(100); {
		case r < 45:
			if got, want := c.Probe(key), m.probe(key); got != want {
				t.Fatalf("step %d: Probe(%d) = %v, model %v", step, key, got, want)
			}
		case r < 85:
			size := 1 + rng.Int64N(200)
			if rng.IntN(500) == 0 {
				size = budget + 1 // oversized: evicts the rest, stays alone
			}
			c.Add(key, size)
			m.add(key, size)
		case r < 99:
			c.Invalidate(key)
			if i := m.index(key); i >= 0 {
				m.drop(i)
			}
		default:
			if rng.IntN(20) == 0 {
				c.DropAll()
				m.keys, m.sizes, m.bytes = nil, map[uint64]int64{}, 0
			}
		}
		if step%997 == 0 {
			checkIndex(t, sh)
			if got := lruOrder(c)[0]; !slices.Equal(got, m.keys) {
				t.Fatalf("step %d: recency order %v, model %v", step, got, m.keys)
			}
		}
	}
	checkIndex(t, sh)
	if c.Stats() != m.stats || c.Bytes() != m.bytes || c.Len() != len(m.keys) {
		t.Fatalf("cache %+v %d B %d entries; model %+v %d B %d entries",
			c.Stats(), c.Bytes(), c.Len(), m.stats, m.bytes, len(m.keys))
	}
}

// TestObjectCacheOversized pins the anti-thrash rule: a record larger
// than the whole shard budget evicts everything else but stays resident
// itself rather than bouncing in and out.
func TestObjectCacheOversized(t *testing.T) {
	c, err := NewObjectCache(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 60)
	c.Add(2, 500)
	if c.Probe(1) {
		t.Fatal("small entry survived an oversized Add")
	}
	if !c.Probe(2) {
		t.Fatal("oversized entry did not stay resident")
	}
}

// TestObjectCacheInvalidate checks that Invalidate retires an entry
// without counting an eviction, tolerates absent keys, and frees the
// entry's bytes for future admissions.
func TestObjectCacheInvalidate(t *testing.T) {
	c, err := NewObjectCache(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1, 100)
	c.Invalidate(1)
	c.Invalidate(99) // absent: no-op
	if c.Probe(1) {
		t.Fatal("invalidated key still resident")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("Invalidate counted %d evictions", st.Evictions)
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after invalidating the only entry", got)
	}
}

// TestObjectCacheDropAll checks the phase-boundary cold start: every
// entry vanishes, bytes go to zero, and the counters survive so a report
// spanning a DropCache still adds up.
func TestObjectCacheDropAll(t *testing.T) {
	c, err := NewObjectCache(1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 64; k++ {
		c.Add(k, 50)
		c.Probe(k)
	}
	before := c.Stats()
	c.DropAll()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after DropAll", got)
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes = %d after DropAll", got)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("DropAll changed the counters: %+v -> %+v", before, after)
	}
	if c.Probe(1) {
		t.Fatal("entry survived DropAll")
	}
}

// TestObjectCacheDeterminism feeds two identically configured caches the
// same mixed sequence and requires bit-identical decisions and counters —
// the property twin-store equivalence tests lean on.
func TestObjectCacheDeterminism(t *testing.T) {
	build := func() *ObjectCache {
		c, err := NewObjectCache(4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	seed := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		key := seed % 257
		size := int64(16 + seed%96)
		switch seed % 7 {
		case 0:
			a.Invalidate(key)
			b.Invalidate(key)
		case 1, 2:
			a.Add(key, size)
			b.Add(key, size)
		default:
			if a.Probe(key) != b.Probe(key) {
				t.Fatalf("step %d: twin caches disagree on key %d", i, key)
			}
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("twin caches diverged: %+v vs %+v", sa, sb)
	}
	if a.Len() != b.Len() || a.Bytes() != b.Bytes() {
		t.Fatal("twin caches hold different residents")
	}
}

// TestObjectCacheProbeAllocFree pins the hot path at zero allocations:
// both hits and misses must not allocate, or every cached Access in
// waldisk would pay the cost the cache exists to avoid.
func TestObjectCacheProbeAllocFree(t *testing.T) {
	c, err := NewObjectCache(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 128; k++ {
		c.Add(k, 64)
	}
	var k uint64
	if n := testing.AllocsPerRun(1000, func() {
		k++
		c.Probe(k % 200) // mix of hits and misses
	}); n != 0 {
		t.Fatalf("Probe allocates %.1f per run, want 0", n)
	}
}

// TestObjectCacheConcurrent hammers disjoint and overlapping keys from
// many goroutines; with -race this is the cache's data-race gate, and the
// invariant checked after the dust settles is bytes-never-past-budget.
func TestObjectCacheConcurrent(t *testing.T) {
	c, err := NewObjectCache(8192, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := uint64(w*1000 + i%300)
				switch i % 5 {
				case 0:
					c.Invalidate(key)
				case 1, 2:
					c.Add(key, int64(32+i%64))
				default:
					c.Probe(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, budget := c.Bytes(), c.Budget(); got > budget {
		t.Fatalf("resident bytes %d exceed budget %d", got, budget)
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no probes counted")
	}
}

// lruOrder lists every shard's residents from MRU to LRU: the order the
// cache would evict them in, shard by shard.
func lruOrder(c *ObjectCache) [][]uint64 {
	out := make([][]uint64, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for n := sh.lru.next; n != &sh.lru; n = n.next {
			out[i] = append(out[i], n.key)
		}
		sh.mu.Unlock()
	}
	return out
}

// TestCacheBracketTwin feeds one random Probe/Add/Invalidate stream to two
// identical caches: key by key to one, in bracketed runs to the other.
// Every probe must agree, and afterwards the counters, residents and the
// LRU order every later eviction follows must be identical. 128 shards
// spans two words of the bracket's shard set.
func TestCacheBracketTwin(t *testing.T) {
	for _, shards := range []int{1, 4, 128} {
		a, err := NewObjectCache(16384, shards)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewObjectCache(16384, shards)
		br := b.NewBracket()
		rng := rand.New(rand.NewPCG(uint64(shards), 1))
		type op struct {
			key  uint64
			size int64 // 0: probe
		}
		var run []op
		for step := 0; step < 2000; step++ {
			run = run[:0]
			for k := rng.IntN(64); k >= 0; k-- {
				o := op{key: rng.Uint64N(1024)}
				if rng.IntN(3) == 0 {
					o.size = 16 + rng.Int64N(96)
				}
				run = append(run, o)
			}
			for _, o := range run {
				br.Mark(o.key)
			}
			br.Lock()
			for i, o := range run {
				if o.size != 0 {
					a.Add(o.key, o.size)
					br.Add(o.key, o.size)
				} else if pa, pb := a.Probe(o.key), br.Probe(o.key); pa != pb {
					br.Unlock()
					t.Fatalf("shards %d step %d op %d: probe of %d: per-key %v, bracket %v", shards, step, i, o.key, pa, pb)
				}
			}
			br.Unlock()
			if rng.IntN(4) == 0 {
				key := rng.Uint64N(1024)
				a.Invalidate(key)
				b.Invalidate(key)
			}
		}
		if sa, sb := a.Stats(), b.Stats(); sa != sb || sa.Evictions == 0 {
			t.Fatalf("shards %d: stats per-key %+v, bracket %+v (want equal, with evictions)", shards, sa, sb)
		}
		if a.Len() != b.Len() || a.Bytes() != b.Bytes() {
			t.Fatalf("shards %d: per-key holds %d entries/%d B, bracket %d/%d", shards, a.Len(), a.Bytes(), b.Len(), b.Bytes())
		}
		if oa, ob := lruOrder(a), lruOrder(b); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("shards %d: LRU orders differ", shards)
		}
		if !b.ShardsFree() {
			t.Fatalf("shards %d: a shard is still held after Unlock", shards)
		}
	}
}

// TestCacheBracketAllocFree pins the bracketed batch path at zero
// allocations over a warm cache, like Probe's own test.
func TestCacheBracketAllocFree(t *testing.T) {
	c, err := NewObjectCache(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 128; k++ {
		c.Add(k, 64)
	}
	br := c.NewBracket()
	if n := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 200; k++ {
			br.Mark(k)
		}
		br.Lock()
		for k := uint64(0); k < 200; k++ {
			if !br.Probe(k) {
				br.Add(k, 64)
			}
		}
		br.Unlock()
	}); n != 0 {
		t.Fatalf("bracketed batch allocates %.1f per run, want 0", n)
	}
}

// TestCacheBracketConcurrent runs brackets over overlapping key sets
// beside single-key Probe/Invalidate and DropAll. Under -race it is the
// bracket's data-race gate; the ascending lock order keeps it free of
// deadlock, and the budget invariant must hold afterwards.
func TestCacheBracketConcurrent(t *testing.T) {
	c, err := NewObjectCache(8192, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			br := c.NewBracket()
			rng := rand.New(rand.NewPCG(uint64(w), 2))
			keys := make([]uint64, 48)
			for i := 0; i < 300; i++ {
				for k := range keys {
					keys[k] = rng.Uint64N(400)
					br.Mark(keys[k])
				}
				br.Lock()
				for _, k := range keys {
					if !br.Probe(k) {
						br.Add(k, 32+int64(k%64))
					}
				}
				br.Unlock()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				key := uint64((w*131 + i) % 400)
				if i%3 == 0 {
					c.Invalidate(key)
				} else {
					c.Probe(key)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.DropAll()
		}
	}()
	wg.Wait()
	if got, budget := c.Bytes(), c.Budget(); got > budget {
		t.Fatalf("resident bytes %d exceed budget %d", got, budget)
	}
	if !c.ShardsFree() {
		t.Fatal("a shard is still held after every bracket unlocked")
	}
}

// BenchmarkObjectCache is the layer number for ObjectCache probes: a
// 512-key batch (a traversal chunk) probed, with an install on every
// miss, per key or under one bracket, from one goroutine or from
// GOMAXPROCS. ns/key is wall time per looked-up key.
//
//   - miss-heavy: 20,000 keys of 840 B over a 2 MiB, 8-shard cache, so
//     most lookups miss and evict (the served waldisk of ocb-remote);
//   - all-hit: the same keys in a cache that holds them all (ocb-waldisk-rw).
func BenchmarkObjectCache(b *testing.B) {
	const (
		nkeys   = 20000
		keySize = 840
		batch   = 512
	)
	stream := make([]uint64, 1<<16)
	rng := rand.New(rand.NewPCG(11, 3))
	for i := range stream {
		stream[i] = 1 + rng.Uint64N(nkeys)
	}
	lookup := func(c *ObjectCache, br *CacheBracket, keys []uint64) {
		if br == nil {
			for _, k := range keys {
				if !c.Probe(k) {
					c.Add(k, keySize)
				}
			}
			return
		}
		for _, k := range keys {
			br.Mark(k)
		}
		br.Lock()
		for _, k := range keys {
			if !br.Probe(k) {
				br.Add(k, keySize)
			}
		}
		br.Unlock()
	}
	for _, load := range []struct {
		name   string
		budget int64
	}{
		{"miss-heavy", 2 << 20},
		{"all-hit", 2 * nkeys * keySize},
	} {
		for _, mode := range []string{"per-key", "bracket"} {
			run := func(b *testing.B, parallel bool) {
				c, err := NewObjectCache(load.budget, 8)
				if err != nil {
					b.Fatal(err)
				}
				for k := uint64(1); k <= nkeys; k++ {
					c.Add(k, keySize)
				}
				newBracket := func() *CacheBracket {
					if mode == "bracket" {
						return c.NewBracket()
					}
					return nil
				}
				b.ResetTimer()
				if parallel {
					var worker atomic.Uint64
					b.RunParallel(func(pb *testing.PB) {
						br := newBracket()
						pos := int(worker.Add(1)*7919) % len(stream)
						for pb.Next() {
							pos = (pos + batch) % (len(stream) - batch)
							lookup(c, br, stream[pos:pos+batch])
						}
					})
				} else {
					br := newBracket()
					pos := 0
					for i := 0; i < b.N; i++ {
						pos = (pos + batch) % (len(stream) - batch)
						lookup(c, br, stream[pos:pos+batch])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
			}
			b.Run(load.name+"/"+mode+"/serial", func(b *testing.B) { run(b, false) })
			b.Run(load.name+"/"+mode+"/parallel", func(b *testing.B) { run(b, true) })
		}
	}
}
