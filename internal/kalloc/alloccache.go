package kalloc

import "fmt"

// AllocCache is the NetDIMM driver's pre-allocation hash table (paper
// Sec. 4.2.2): it reserves perSubarray pages from every distinct (rank,
// bank, sub-array), so on-demand DMA-buffer allocation returns a
// sub-array-affine page immediately instead of walking the allocator on the
// packet critical path.
//
// The cache fills on first touch. A bucket no Get has reached holds its
// reserved fresh pages, indices [0, zone.reserve) of its zone bucket, and
// hands them out in the same LIFO order an eager prefill at construction
// would; only the buckets a machine uses ever cost memory. Nothing in the
// simulation refills the cache: a drained bucket stays empty and Get falls
// back to the allocator's slow path. The paper's background refill is an
// open model fix; Refill tops buckets up but no event calls it yet.
type AllocCache struct {
	zone        *Zone
	perSubarray int
	// pinned counts the pages the cache holds and nonEmpty the buckets
	// holding at least one, so a drained cache skips the no-hint scan.
	pinned, nonEmpty int
	// cursor is where the next NoHint lookup starts its bucket scan. A
	// rotating cursor spreads no-affinity allocations across sub-arrays
	// (like the kernel's per-CPU freelist rotation) and is deterministic,
	// which the parallel experiment harness depends on for byte-identical
	// results.
	cursor int

	hits, slow uint64
}

// NewAllocCache attaches a cache reserving perSubarray pages per bucket.
// With the paper's defaults (2 pages x 8K sub-arrays x 2 ranks) this pins
// 32K pages = 128MB, 0.8% of a 16GB NetDIMM. Attaching costs O(buckets the
// zone has touched); a zone takes at most one cache.
func NewAllocCache(zone *Zone, perSubarray int) (*AllocCache, error) {
	if perSubarray <= 0 {
		return nil, fmt.Errorf("kalloc: perSubarray must be positive, got %d", perSubarray)
	}
	if zone.reserve > 0 {
		return nil, fmt.Errorf("kalloc: zone %s already has an allocCache", zone.Name)
	}
	c := &AllocCache{zone: zone, perSubarray: perSubarray}
	// Buckets the zone touched before the cache attached fill now, as the
	// prefill would: from their free list first, then fresh pages.
	c.Refill()
	untouched := zone.Buckets() - len(zone.touched)
	zone.reserve = min(perSubarray, pagesPerBucket)
	zone.allocCount += int64(untouched * zone.reserve)
	zone.stats.Allocs += uint64(untouched * zone.reserve)
	c.pinned += untouched * zone.reserve
	c.nonEmpty += untouched
	return c, nil
}

// holds returns the number of ready pages the cache has in bucket b.
func holds(b *bucket) int { return b.reserved + len(b.cached) }

// fill tops bucket b's ready pages up to perSubarray, stopping early if
// its sub-array is exhausted.
func (c *AllocCache) fill(b *bucket) {
	had := holds(b)
	for holds(b) < c.perSubarray {
		a := c.zone.allocFromBucket(int(b.key))
		if a < 0 {
			break
		}
		b.cached = append(b.cached, a)
	}
	if had == 0 && holds(b) > 0 {
		c.nonEmpty++
	}
	c.pinned += holds(b) - had
}

// take pops the next ready page of bucket key, or returns -1 if the bucket
// holds none.
func (c *AllocCache) take(key int) int64 {
	b := c.zone.bucketFor(key)
	var a int64
	if n := len(b.cached); n > 0 {
		a = b.cached[n-1]
		b.cached = b.cached[:n-1]
	} else if b.reserved > 0 {
		b.reserved--
		a = c.zone.bucketPage(key, b.reserved)
	} else {
		return -1
	}
	c.pinned--
	if holds(b) == 0 {
		c.nonEmpty--
	}
	c.hits++
	return a
}

// PinnedPages returns the number of pages currently held by the cache.
func (c *AllocCache) PinnedPages() int { return c.pinned }

// Stats returns fast-path hits and slow-path fallbacks.
func (c *AllocCache) Stats() (hits, slowPath uint64) { return c.hits, c.slow }

// Get returns a page in the same sub-array as hint (a physical address in
// the zone), or any page for NoHint. fast reports whether the page came
// from the cache (O(1) hash lookup) rather than the allocator slow path.
func (c *AllocCache) Get(hint int64) (addr int64, fast bool, err error) {
	if hint != NoHint {
		key, kerr := c.zone.SubarrayKeyOf(hint)
		if kerr != nil {
			return 0, false, kerr
		}
		if addr = c.take(int(key)); addr >= 0 {
			return addr, true, nil
		}
	} else if c.nonEmpty > 0 {
		// No affinity requirement: serve from the next non-empty bucket in
		// key order, resuming where the previous no-hint lookup left off.
		n := c.zone.Buckets()
		for i := 0; i < n; i++ {
			key := (c.cursor + i) % n
			if addr = c.take(key); addr >= 0 {
				c.cursor = (key + 1) % n
				return addr, true, nil
			}
		}
	}
	// Slow path: __alloc_netdimm_pages directly.
	c.slow++
	addr, err = c.zone.AllocPageHint(hint)
	return addr, false, err
}

// Refill tops every bucket back up to perSubarray pages, the background
// maintenance the paper's driver runs off the critical path. Buckets whose
// sub-array is exhausted keep fewer pages; Get then falls back to the
// allocator's best-effort path. Only touched buckets can be short: an
// untouched one holds min(perSubarray, pagesPerBucket) pages, and in the
// second case its sub-array has none left. Each bucket fills from its own
// sub-array alone, so the order of the loop cannot reach a result. No
// simulated event calls Refill yet.
func (c *AllocCache) Refill() {
	for i := range c.zone.touched {
		c.fill(&c.zone.touched[i])
	}
}

// Release returns a previously allocated page to its zone bucket's free
// list, where the allocator's slow path and Refill find it.
func (c *AllocCache) Release(addr int64) error { return c.zone.FreePage(addr) }
