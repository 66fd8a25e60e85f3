package netmw

import (
	"sync"

	"repro/internal/matrix"
)

// frameCache caches the wire encoding of operand blocks by block ID so
// a block broadcast to W workers is encoded once and the per-connection
// send path can gather it straight into writev. Safe for concurrent use
// (the cluster server shares one cache across all worker sessions).
//
// Safety rests on the block-ID contract the delta protocol already
// relies on: within a server (or run), a tracked ID names immutable
// bytes — matmul operands never change, and LU panel blocks are final
// before they are first shipped. Untracked blocks (ID 0) are never
// cached.
type frameCache struct {
	mu    sync.Mutex
	m     map[uint64][]byte
	order []uint64 // FIFO eviction ring
	size  int
	limit int
}

// frameCacheBytes bounds the cache; FIFO eviction keeps it simple (this
// cache carries no protocol state — an eviction only costs a re-encode).
const frameCacheBytes = 32 << 20

func newFrameCache() *frameCache {
	return &frameCache{m: make(map[uint64][]byte), limit: frameCacheBytes}
}

// encoded returns the little-endian payload bytes of blk, encoding and
// caching them under id on first use. The returned slice is shared and
// read-only.
func (fc *frameCache) encoded(id uint64, blk []float64) []byte {
	fc.mu.Lock()
	if bs, ok := fc.m[id]; ok && len(bs) == 8*len(blk) {
		fc.mu.Unlock()
		return bs
	}
	fc.mu.Unlock()
	// Encode outside the lock: blocks are immutable and a duplicate
	// encode under contention is cheaper than serializing the memcpy.
	bs := matrix.AppendFloats(make([]byte, 0, 8*len(blk)), blk)
	fc.mu.Lock()
	if _, ok := fc.m[id]; !ok {
		fc.m[id] = bs
		fc.order = append(fc.order, id)
		fc.size += len(bs)
		for fc.size > fc.limit && len(fc.order) > 0 {
			old := fc.order[0]
			fc.order = fc.order[1:]
			if ob, ok := fc.m[old]; ok {
				fc.size -= len(ob)
				delete(fc.m, old)
			}
		}
	}
	fc.mu.Unlock()
	return bs
}
