package buffer

import (
	"math/bits"
	"runtime"
	"sync"
)

// ObjectCache is a sharded, byte-budgeted read cache over object records,
// keyed by uint64 (a backend OID). It is the record-grained sibling of
// Sharded: where Sharded caches fixed-size disk pages for the simulated
// store, ObjectCache tracks which variable-sized objects are resident for
// a store whose records live in real files — a hit means the record does
// not need to be read back from disk. The cache carries no payload bytes
// (the benchmark's objects are sized, not valued); residency plus exact
// hit/miss/eviction accounting is the whole contract, so the same
// buffer.Stats feed the reports and the buffer-sweep ablations.
//
// Keys map to shards by low bits, so sequentially issued OIDs round-robin
// across shards and concurrent readers probing disjoint objects take
// disjoint locks. Each shard runs strict LRU over its slice of the byte
// budget: an entry charges its record's stored size, and inserting past
// the budget evicts from the cold end; a shard finds its entries through
// its own open-addressing key index (see cacheSlot). With the same budget and shard
// count, two caches fed the same probe/add sequence make bit-identical
// decisions — twin-store equivalence tests depend on it.
//
// A caller probing many keys at once (a store's batch fault) brackets
// them with a CacheBracket instead of paying a lock round trip per key:
// the bracket takes each shard its keys map to once, in ascending shard
// order, runs lock-free Probe/Add twins, and releases. The decisions are
// exactly those of the same Probe/Add sequence issued one key at a time.
// Lock order: a caller's own locks first (waldisk takes its store mutex
// before the bracket), then cache shards in ascending index; every other
// method holds one shard at a time. A bracket must not be held across
// disk I/O or around a single-key call on the same cache.
type ObjectCache struct {
	shards []cacheShard
	mask   uint32
}

// cacheShard is one independently locked LRU slice of the cache. The
// struct spans more than one cache line, so adjacent shard locks never
// share one and need no explicit padding.
type cacheShard struct {
	mu     sync.Mutex
	slots  []cacheSlot // key index: open addressing, linear probing
	shift  uint8       // 64 - log2(len(slots)), for home
	n      int         // resident entries
	lru    cacheNode   // ring sentinel; next is the MRU side
	free   *cacheNode
	bytes  int64
	budget int64
	stats  Stats
}

// cacheNode is one resident entry plus its LRU links. Evicted nodes are
// kept on a per-shard freelist so steady-state churn does not allocate.
type cacheNode struct {
	key        uint64
	size       int64
	prev, next *cacheNode
}

// NewObjectCache returns a cache bounded by budget bytes, partitioned
// into shards sub-caches (rounded down to a power of two; shards < 1
// yields one). A non-positive budget is an error — callers disable
// caching by not constructing one.
func NewObjectCache(budget int64, shards int) (*ObjectCache, error) {
	if budget < 1 {
		return nil, ErrZeroCapacity
	}
	n := normalizeShards(shards, int(budget))
	c := &ObjectCache{
		shards: make([]cacheShard, n),
		mask:   uint32(n - 1),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.resetIndex()
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.budget = int64(shardCapacity(int(budget), n, i))
	}
	return c, nil
}

// shard returns the shard owning a key.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) shard(key uint64) *cacheShard {
	return &c.shards[uint32(key)&c.mask]
}

// Probe reports whether the key is resident, counting a hit (and
// refreshing its recency) or a miss. It is the read hot path: a hit
// means the caller can skip its disk read entirely.
//
//ocblint:allocfree -- steady-state hot path
func (c *ObjectCache) Probe(key uint64) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	ok := sh.probe(key)
	sh.mu.Unlock()
	return ok
}

// Add makes the key resident charging size bytes, evicting cold entries
// past the shard's budget. Re-adding a resident key refreshes its
// recency and size without counting a hit or miss.
func (c *ObjectCache) Add(key uint64, size int64) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.add(key, size)
	sh.mu.Unlock()
}

// Invalidate drops the key without counting an eviction; a no-op when it
// is not resident. Callers use it to retire entries whose backing record
// changed or vanished.
func (c *ObjectCache) Invalidate(key uint64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if i, ok := sh.find(key); ok {
		sh.remove(sh.slots[i].node)
	}
	sh.mu.Unlock()
}

// DropAll empties every shard without touching the counters — the cache
// cold start DropCache simulates between benchmark phases.
func (c *ObjectCache) DropAll() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.resetIndex()
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		sh.free = nil
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// Stats returns the counters summed across shards. Under concurrent load
// the sum is not a single instant (shards are read one at a time).
func (c *ObjectCache) Stats() Stats {
	var total Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
	}
	return total
}

// ResetStats zeroes the counters of every shard.
func (c *ObjectCache) ResetStats() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Len returns the number of resident entries.
func (c *ObjectCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// Bytes returns the resident byte total across shards.
func (c *ObjectCache) Bytes() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Budget returns the configured byte budget across shards.
func (c *ObjectCache) Budget() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].budget
	}
	return total
}

// NumShards returns the number of sub-caches.
func (c *ObjectCache) NumShards() int { return len(c.shards) }

// ShardsFree reports whether every shard lock was free at the instant it
// was tried (each is taken with TryLock and released at once). It is a
// diagnostic for tests asserting that a caller holds no bracket across
// its disk reads.
func (c *ObjectCache) ShardsFree() bool {
	for i := range c.shards {
		sh := &c.shards[i]
		if !sh.mu.TryLock() {
			return false
		}
		sh.mu.Unlock()
	}
	return true
}

// CacheBracket runs a batch of probes and installs under one lock
// acquisition per shard. Mark the keys, Lock, Probe/Add any marked key,
// Unlock. A bracket is reusable but belongs to one goroutine at a time.
type CacheBracket struct {
	c    *ObjectCache
	held []uint64 // bitset of marked (and, between Lock and Unlock, held) shards
}

// NewBracket returns a bracket over c.
func (c *ObjectCache) NewBracket() *CacheBracket {
	return &CacheBracket{c: c, held: make([]uint64, (len(c.shards)+63)/64)}
}

// Mark adds the shard owning key to the set Lock takes.
//
//ocblint:allocfree -- steady-state hot path
func (b *CacheBracket) Mark(key uint64) {
	i := uint32(key) & b.c.mask
	b.held[i>>6] |= 1 << (i & 63)
}

// bracketSpins bounds how many times Lock retries a busy shard, yielding
// its processor between tries, before it blocks. Another bracket holds a
// shard for one batch's cache pass, tens of microseconds, far longer than
// sync.Mutex spins before parking; a parked waiter then waits for a
// wakeup, and on a machine with more runnable threads than CPUs that can
// be a whole scheduler tick. Measured on ocb-remote (2 vCPUs), blocking
// at once put p99 op latency at about 4 ms; spinning first, at about
// 0.8 ms. The bound (1000 yields take about 0.2 ms there) covers a few
// passes and caps the CPU a waiter burns.
const bracketSpins = 1000

// Lock takes every marked shard, in ascending shard order.
//
//ocblint:allocfree -- steady-state hot path
func (b *CacheBracket) Lock() {
	for w, word := range b.held {
		for ; word != 0; word &= word - 1 {
			mu := &b.c.shards[w<<6+bits.TrailingZeros64(word)].mu
			for spins := 0; !mu.TryLock(); spins++ {
				if spins == bracketSpins {
					mu.Lock()
					break
				}
				runtime.Gosched()
			}
		}
	}
}

// Unlock releases the held shards and clears the marks.
//
//ocblint:allocfree -- steady-state hot path
func (b *CacheBracket) Unlock() {
	for w, word := range b.held {
		for ; word != 0; word &= word - 1 {
			b.c.shards[w<<6+bits.TrailingZeros64(word)].mu.Unlock()
		}
		b.held[w] = 0
	}
}

// Probe is ObjectCache.Probe for a key whose shard the bracket holds.
//
//ocblint:allocfree -- steady-state hot path
func (b *CacheBracket) Probe(key uint64) bool {
	return b.owned(key).probe(key)
}

// Add is ObjectCache.Add for a key whose shard the bracket holds.
func (b *CacheBracket) Add(key uint64, size int64) {
	b.owned(key).add(key, size)
}

// owned returns key's shard, panicking if the bracket did not mark it:
// touching an unheld shard would be a silent data race.
//
//ocblint:allocfree -- steady-state hot path
func (b *CacheBracket) owned(key uint64) *cacheShard {
	i := uint32(key) & b.c.mask
	if b.held[i>>6]&(1<<(i&63)) == 0 {
		panic("buffer: CacheBracket key outside its locked shards")
	}
	return &b.c.shards[i]
}

// probe is Probe's body; the caller holds sh.mu.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) probe(key uint64) bool {
	i, ok := sh.find(key)
	if ok {
		sh.stats.Hits++
		sh.moveFront(sh.slots[i].node)
	} else {
		sh.stats.Misses++
	}
	return ok
}

// add is Add's body; the caller holds sh.mu.
func (sh *cacheShard) add(key uint64, size int64) {
	i, ok := sh.find(key)
	if ok {
		n := sh.slots[i].node
		sh.bytes += size - n.size
		n.size = size
		sh.moveFront(n)
		sh.evict(n)
		return
	}
	n := sh.free
	if n != nil {
		sh.free = n.next
	} else {
		n = new(cacheNode)
	}
	n.key, n.size = key, size
	sh.insert(i, n)
	sh.pushFront(n)
	sh.bytes += size
	sh.evict(n)
}

// The key index is an open-addressing table of (key, node) slots with
// linear probing, at most half full so a probe run stays short. Every
// probe, install and eviction looks a key up, and over a shard's small,
// hot table a multiplicative hash plus a short linear scan costs a
// fraction of a general-purpose map's hashing and group probing.
// Deletion shifts the following run back instead of leaving tombstones,
// so lookups do not slow down with churn.
type cacheSlot struct {
	key  uint64
	node *cacheNode // nil: empty slot
}

// minSlots is a shard index's starting size.
const minSlots = 16

// resetIndex empties the index back to its starting size.
func (sh *cacheShard) resetIndex() {
	sh.slots = make([]cacheSlot, minSlots)
	sh.shift = uint8(64 - bits.TrailingZeros(minSlots))
	sh.n = 0
}

// home is key's preferred slot (Fibonacci hashing: sequential OIDs
// spread over the whole table).
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> sh.shift)
}

// find returns key's slot and true, or the empty slot ending its probe
// run (where an insert goes) and false.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) find(key uint64) (int, bool) {
	mask := len(sh.slots) - 1
	for i := sh.home(key); ; i = (i + 1) & mask {
		s := &sh.slots[i]
		if s.node == nil {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// insert indexes n at the empty slot i that find returned for n.key,
// doubling the table first when it would pass half full.
func (sh *cacheShard) insert(i int, n *cacheNode) {
	if 2*(sh.n+1) > len(sh.slots) {
		old := sh.slots
		sh.slots = make([]cacheSlot, 2*len(old))
		sh.shift--
		for _, s := range old {
			if s.node != nil {
				j, _ := sh.find(s.key)
				sh.slots[j] = s
			}
		}
		i, _ = sh.find(n.key)
	}
	sh.slots[i] = cacheSlot{key: n.key, node: n}
	sh.n++
}

// unindex empties slot i and shifts back every later slot of its probe
// run that would otherwise become unreachable from its home.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) unindex(i int) {
	mask := len(sh.slots) - 1
	sh.n--
	for j := i; ; {
		sh.slots[i] = cacheSlot{}
		for {
			j = (j + 1) & mask
			s := sh.slots[j]
			if s.node == nil {
				return
			}
			// s may fill the hole at i unless its home lies cyclically
			// in (i, j].
			if h := sh.home(s.key); (j-h)&mask >= (j-i)&mask {
				sh.slots[i] = s
				i = j
				break
			}
		}
	}
}

// evict removes cold entries until the shard is back under budget. The
// just-added node (keep) is never the victim: one record larger than the
// whole shard budget stays resident alone rather than thrashing.
func (sh *cacheShard) evict(keep *cacheNode) {
	for sh.bytes > sh.budget {
		victim := sh.lru.prev
		if victim == &sh.lru || victim == keep {
			return
		}
		sh.stats.Evictions++
		sh.remove(victim)
	}
}

// remove unlinks a node, returns its bytes and pushes it on the freelist.
func (sh *cacheShard) remove(n *cacheNode) {
	sh.bytes -= n.size
	i, _ := sh.find(n.key)
	sh.unindex(i)
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = nil
	n.next = sh.free
	sh.free = n
}

// moveFront refreshes a node to the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) moveFront(n *cacheNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	sh.pushFront(n)
}

// pushFront inserts a node at the MRU end.
//
//ocblint:allocfree -- steady-state hot path
func (sh *cacheShard) pushFront(n *cacheNode) {
	n.next = sh.lru.next
	n.prev = &sh.lru
	sh.lru.next.prev = n
	sh.lru.next = n
}
