package waldisk

import (
	"os"
	"sync"
	"time"

	"ocb/internal/backend"
)

// SpanReadSize exposes the coalesced-read bound to the external tests.
const SpanReadSize = spanReadSize

// RecordLocation reports where oid's committed record lives in the
// current snapshot: its segment file, offset and framed length.
func (s *Store) RecordLocation(oid backend.OID) (path string, off int64, rlen int32, ok bool) {
	e, ok := s.snap.Load().resolve(oid)
	if !ok {
		return "", 0, 0, false
	}
	return s.segPath(e.seg), e.off, e.rlen, true
}

// CountBatchPreads routes AccessBatch's physical span reads through a
// counter keyed by segment file path. counts snapshots the tally; restore
// puts the plain read back. Tests using it must not run in parallel.
func CountBatchPreads() (counts func() map[string]int, restore func()) {
	var mu sync.Mutex
	tally := make(map[string]int)
	preadSpan = func(f *os.File, b []byte, off int64) (int, error) {
		mu.Lock()
		tally[f.Name()]++
		mu.Unlock()
		return f.ReadAt(b, off)
	}
	counts = func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(tally))
		for k, v := range tally {
			out[k] = v
		}
		return out
	}
	return counts, func() { preadSpan = (*os.File).ReadAt }
}

// CheckBatchPreads calls check before each of AccessBatch's physical span
// reads; restore puts the plain read back. Tests using it must not run in
// parallel.
func CheckBatchPreads(check func()) (restore func()) {
	preadSpan = func(f *os.File, b []byte, off int64) (int, error) {
		check()
		return f.ReadAt(b, off)
	}
	return func() { preadSpan = (*os.File).ReadAt }
}

// CacheShardsFree reports whether every read-cache shard lock can be
// taken at this instant (TryLock on each); true with the cache off.
func (s *Store) CacheShardsFree() bool {
	return s.cache == nil || s.cache.ShardsFree()
}

// NextCompactPass waits up to timeout for the background compactor to
// finish its next pass and reports whether that pass reclaimed a segment;
// ok is false if no pass finished in time.
func (s *Store) NextCompactPass(timeout time.Duration) (reclaimed, ok bool) {
	select {
	case reclaimed = <-s.compactPass:
		return reclaimed, true
	case <-time.After(timeout):
		return false, false
	}
}
