package kalloc

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"netdimm/internal/addrmap"
)

const testBase = int64(16) << 30

func netZone(t *testing.T) *Zone {
	t.Helper()
	return NewNetDIMMZone("NET_0", testBase, 16<<30)
}

func TestZoneAllocFreeRecycles(t *testing.T) {
	z := netZone(t)
	a, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("double allocation")
	}
	if err := z.FreePage(a); err != nil {
		t.Fatal(err)
	}
	c, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed page not recycled: got %#x want %#x", c, a)
	}
}

// Exhausting the smallest zone, one 8GB rank, covers Failures and the
// no-hint scan past every full bucket.
func TestZoneExhaustion(t *testing.T) {
	z := NewNetDIMMZone("NET_0", testBase, addrmap.RankBytes)
	pages := z.FreePages()
	for i := int64(0); i < pages; i++ {
		if _, err := z.AllocPage(); err != nil {
			t.Fatalf("page %d of %d: %v", i, pages, err)
		}
	}
	if _, err := z.AllocPage(); err == nil {
		t.Fatal("exhausted zone allocated")
	}
	if z.FreePages() != 0 || z.Stats().Failures != 1 {
		t.Fatalf("FreePages = %d, Failures = %d", z.FreePages(), z.Stats().Failures)
	}
	// A freed page in the last bucket is found again.
	last := z.bucketPage(z.Buckets()-1, pagesPerBucket-1)
	if err := z.FreePage(last); err != nil {
		t.Fatal(err)
	}
	if p, err := z.AllocPage(); err != nil || p != last {
		t.Fatalf("AllocPage = %#x, %v; want %#x", p, err, last)
	}
}

func TestFreeErrors(t *testing.T) {
	z := netZone(t)
	a, _ := z.AllocPage()
	if err := z.FreePage(a + 1); err == nil {
		t.Error("unaligned free accepted")
	}
	if err := z.FreePage(testBase - addrmap.PageSize); err == nil {
		t.Error("foreign free accepted")
	}
	if err := z.FreePage(z.bucketPage(7, 3)); err == nil {
		t.Error("free of a never-allocated page accepted")
	}
	if err := z.FreePage(a); err != nil {
		t.Error(err)
	}
	if err := z.FreePage(a); err == nil {
		t.Error("double free accepted")
	}
}

func TestNetDIMMZoneGeometry(t *testing.T) {
	z := netZone(t)
	// Two 8GB ranks -> 16K buckets (paper: 8K distinct sub-arrays per rank).
	if z.Buckets() != 2*addrmap.SubarraysPerRank {
		t.Fatalf("buckets = %d, want %d", z.Buckets(), 2*addrmap.SubarraysPerRank)
	}
	if z.FreePages() != (16<<30)/addrmap.PageSize {
		t.Fatalf("FreePages = %d", z.FreePages())
	}
}

func TestHintAllocationAffinity(t *testing.T) {
	z := netZone(t)
	first, err := z.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p, err := z.AllocPageHint(first)
		if err != nil {
			t.Fatal(err)
		}
		if !addrmap.SameSubarray(first-z.Base, p-z.Base) {
			t.Fatalf("hinted page %#x not in hint's sub-array", p)
		}
	}
	if z.Stats().HintSatisfied != 50 {
		t.Fatalf("HintSatisfied = %d", z.Stats().HintSatisfied)
	}
}

func TestHintFallbackWhenSubarrayFull(t *testing.T) {
	z := netZone(t)
	first, _ := z.AllocPage()
	// Exhaust the hinted sub-array: 256 pages per bucket.
	for i := 0; i < pagesPerBucket-1; i++ {
		if _, err := z.AllocPageHint(first); err != nil {
			t.Fatal(err)
		}
	}
	// Next hinted allocation must fall back, not fail (best-effort API).
	p, err := z.AllocPageHint(first)
	if err != nil {
		t.Fatal(err)
	}
	if addrmap.SameSubarray(first-z.Base, p-z.Base) {
		t.Fatal("sub-array should be exhausted")
	}
	if z.Stats().HintFallback != 1 {
		t.Fatalf("HintFallback = %d", z.Stats().HintFallback)
	}
}

func TestHintOutsideZone(t *testing.T) {
	z := netZone(t)
	if _, err := z.AllocPageHint(42); err == nil {
		t.Fatal("foreign hint accepted")
	}
}

// Property: the allocator never hands out the same page twice while it is
// allocated, and every page lies inside the zone, page-aligned.
func TestNoDoubleAllocationProperty(t *testing.T) {
	z := netZone(t)
	seen := make(map[int64]bool)
	var handles []int64
	f := func(op uint8, pick uint8) bool {
		if op%4 != 0 || len(handles) == 0 {
			hint := NoHint
			if len(handles) > 0 && op%2 == 0 {
				hint = handles[int(pick)%len(handles)]
			}
			p, err := z.AllocPageHint(hint)
			if err != nil {
				return true // exhaustion is legal
			}
			if seen[p] || !z.Contains(p) || p%addrmap.PageSize != 0 {
				return false
			}
			seen[p] = true
			handles = append(handles, p)
		} else {
			i := int(pick) % len(handles)
			p := handles[i]
			handles = append(handles[:i], handles[i+1:]...)
			if err := z.FreePage(p); err != nil {
				return false
			}
			delete(seen, p)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketPageRoundTrip(t *testing.T) {
	z := netZone(t)
	// Every bucket's first page must map back to that bucket's key.
	for key := 0; key < z.Buckets(); key += 97 {
		p := z.bucketPage(key, 0)
		got, err := z.SubarrayKeyOf(p)
		if err != nil {
			t.Fatal(err)
		}
		if int(got) != key {
			t.Fatalf("bucket %d page maps to key %d", key, got)
		}
	}
	// And distinct page indices within a bucket are distinct addresses.
	seen := make(map[int64]bool)
	for idx := 0; idx < pagesPerBucket; idx++ {
		p := z.bucketPage(5, idx)
		if seen[p] {
			t.Fatalf("bucket page %d duplicates address %#x", idx, p)
		}
		seen[p] = true
		if k, _ := z.SubarrayKeyOf(p); k != 5 {
			t.Fatalf("page %d of bucket 5 maps to key %d", idx, k)
		}
	}
}

func TestAllocCachePrefill(t *testing.T) {
	z := netZone(t)
	c, err := NewAllocCache(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Sec. 4.2.2: two ranks -> 32K pre-allocated pages (128MB, 0.8%
	// of 16GB).
	if got := c.PinnedPages(); got != 32768 {
		t.Fatalf("PinnedPages = %d, want 32768", got)
	}
	pinnedBytes := int64(c.PinnedPages()) * addrmap.PageSize
	overheadPct := float64(pinnedBytes) / float64(16<<30) * 100
	if overheadPct < 0.7 || overheadPct > 0.9 {
		t.Fatalf("capacity overhead = %.2f%%, want ~0.8%%", overheadPct)
	}
}

func TestAllocCacheFastPath(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 2)
	app, _ := z.AllocPage() // an application buffer somewhere in the zone

	p, fast, err := c.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Fatal("prefilled cache should serve the fast path")
	}
	if !addrmap.SameSubarray(app-z.Base, p-z.Base) {
		t.Fatal("fast-path page not sub-array affine")
	}
	hits, slow := c.Stats()
	if hits != 1 || slow != 0 {
		t.Fatalf("stats = %d/%d", hits, slow)
	}
}

func TestAllocCacheSlowPathAndRefill(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 2)
	app, _ := z.AllocPage()

	// Drain the bucket (2 pages), then hit the slow path.
	c.Get(app)
	c.Get(app)
	_, fast, err := c.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	if fast {
		t.Fatal("drained bucket should use the slow path")
	}
	_, slow := c.Stats()
	if slow != 1 {
		t.Fatalf("slow = %d", slow)
	}
	// A refill restores the fast path.
	c.Refill()
	_, fast, err = c.Get(app)
	if err != nil || !fast {
		t.Fatalf("post-refill Get fast=%v err=%v", fast, err)
	}
}

func TestAllocCacheNoHint(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 1)
	p, fast, err := c.Get(NoHint)
	if err != nil || !fast {
		t.Fatalf("NoHint Get fast=%v err=%v", fast, err)
	}
	if !z.Contains(p) {
		t.Fatal("page outside zone")
	}
}

func TestAllocCacheRelease(t *testing.T) {
	z := netZone(t)
	c, _ := NewAllocCache(z, 1)
	p, _, _ := c.Get(NoHint)
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(p); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestNewAllocCacheErrors(t *testing.T) {
	z := netZone(t)
	if _, err := NewAllocCache(z, 0); err == nil {
		t.Fatal("zero perSubarray accepted")
	}
	if _, err := NewAllocCache(z, 2); err != nil {
		t.Fatal(err)
	}
	// A second cache on the same zone would reserve its pages twice.
	if _, err := NewAllocCache(z, 2); err == nil {
		t.Fatal("second allocCache on one zone accepted")
	}
}

func TestZonePanicsOnBadGeometry(t *testing.T) {
	cases := []func(){
		func() { NewNetDIMMZone("x", 1, addrmap.RankBytes) },   // unaligned base
		func() { NewNetDIMMZone("x", 0, addrmap.RankBytes+1) }, // unaligned size
		func() { NewNetDIMMZone("x", 0, 0) },                   // empty
		func() { NewNetDIMMZone("x", 0, 1<<20) },               // not a rank multiple
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry accepted", i)
				}
			}()
			fn()
		}()
	}
}

// eagerZone and eagerCache are the reference model for the lazy allocator:
// the zone with a dense bucket array and a whole-zone allocation bitmap,
// and a cache that prefills every bucket at construction. The lazy zone
// and cache must be indistinguishable from it through the public API.
type eagerZone struct {
	base, size int64
	buckets    []eagerBucket
	allocated  []uint64
	allocCount int64
	stats      ZoneStats
}

type eagerBucket struct {
	fresh int
	freed []int64
}

func newEagerZone(base, size int64) *eagerZone {
	pages := size / addrmap.PageSize
	return &eagerZone{
		base: base, size: size,
		buckets:   make([]eagerBucket, size/addrmap.RankBytes*addrmap.SubarraysPerRank),
		allocated: make([]uint64, (pages+63)/64),
	}
}

func (z *eagerZone) bit(addr int64) (int64, uint64) {
	page := (addr - z.base) / addrmap.PageSize
	return page / 64, 1 << uint(page%64)
}

func (z *eagerZone) allocFromBucket(key int) int64 {
	b := &z.buckets[key]
	if n := len(b.freed); n > 0 {
		a := b.freed[n-1]
		b.freed = b.freed[:n-1]
		return a
	}
	if b.fresh >= pagesPerBucket {
		return -1
	}
	b.fresh++
	return (&Zone{Base: z.base}).bucketPage(key, b.fresh-1)
}

func (z *eagerZone) markAllocated(addr int64) {
	w, m := z.bit(addr)
	z.allocated[w] |= m
	z.allocCount++
	z.stats.Allocs++
}

func (z *eagerZone) AllocPageHint(hint int64) (int64, error) {
	var addr int64 = -1
	if hint != NoHint {
		if hint < z.base || hint >= z.base+z.size {
			return 0, fmt.Errorf("hint outside zone")
		}
		addr = z.allocFromBucket(int(addrmap.SubarrayOf(hint - z.base)))
		if addr >= 0 {
			z.stats.HintSatisfied++
		} else {
			z.stats.HintFallback++
		}
	}
	for key := 0; addr < 0 && key < len(z.buckets); key++ {
		addr = z.allocFromBucket(key)
	}
	if addr < 0 {
		z.stats.Failures++
		return 0, fmt.Errorf("zone exhausted")
	}
	z.markAllocated(addr)
	return addr, nil
}

func (z *eagerZone) FreePage(addr int64) error {
	if addr < z.base || addr >= z.base+z.size || addr%addrmap.PageSize != 0 {
		return fmt.Errorf("bad free")
	}
	w, m := z.bit(addr)
	if z.allocated[w]&m == 0 {
		return fmt.Errorf("double free")
	}
	z.allocated[w] &^= m
	z.allocCount--
	z.stats.Frees++
	b := &z.buckets[addrmap.SubarrayOf(addr-z.base)]
	b.freed = append(b.freed, addr)
	return nil
}

func (z *eagerZone) FreePages() int64 { return z.size/addrmap.PageSize - z.allocCount }

type eagerCache struct {
	zone       *eagerZone
	per        int
	cache      [][]int64
	cursor     int
	hits, slow uint64
}

func newEagerCache(z *eagerZone, per int) *eagerCache {
	c := &eagerCache{zone: z, per: per, cache: make([][]int64, len(z.buckets))}
	c.Refill()
	return c
}

func (c *eagerCache) Refill() {
	for key := range c.cache {
		for len(c.cache[key]) < c.per {
			a := c.zone.allocFromBucket(key)
			if a < 0 {
				break
			}
			c.zone.markAllocated(a)
			c.cache[key] = append(c.cache[key], a)
		}
	}
}

func (c *eagerCache) pop(key int) (int64, bool) {
	pages := c.cache[key]
	if len(pages) == 0 {
		return 0, false
	}
	c.cache[key] = pages[:len(pages)-1]
	c.hits++
	return pages[len(pages)-1], true
}

func (c *eagerCache) Get(hint int64) (int64, bool, error) {
	if hint != NoHint {
		if hint < c.zone.base || hint >= c.zone.base+c.zone.size {
			return 0, false, fmt.Errorf("hint outside zone")
		}
		if a, ok := c.pop(int(addrmap.SubarrayOf(hint - c.zone.base))); ok {
			return a, true, nil
		}
	} else {
		n := len(c.cache)
		for i := 0; i < n; i++ {
			key := (c.cursor + i) % n
			if a, ok := c.pop(key); ok {
				c.cursor = (key + 1) % n
				return a, true, nil
			}
		}
	}
	c.slow++
	a, err := c.zone.AllocPageHint(hint)
	return a, false, err
}

func (c *eagerCache) PinnedPages() int {
	n := 0
	for _, pages := range c.cache {
		n += len(pages)
	}
	return n
}

// twin drives a lazy zone and cache and their eager reference in lockstep
// and fails the test at the first step where they differ.
type twin struct {
	t     *testing.T
	zone  *Zone
	cache *AllocCache
	ez    *eagerZone
	ec    *eagerCache
	step  int
}

func newTwin(t *testing.T, ranks int) *twin {
	size := int64(ranks) * addrmap.RankBytes
	return &twin{t: t, zone: NewNetDIMMZone("NET_0", testBase, size), ez: newEagerZone(testBase, size)}
}

func (w *twin) attach(per int) {
	w.t.Helper()
	c, err := NewAllocCache(w.zone, per)
	if err != nil {
		w.t.Fatal(err)
	}
	w.cache, w.ec = c, newEagerCache(w.ez, per)
	w.check(true)
}

// result compares one operation's outcome.
func (w *twin) result(op string, got, want int64, gotFast, wantFast bool, gotErr, wantErr error) int64 {
	w.t.Helper()
	w.step++
	if got != want || gotFast != wantFast || (gotErr == nil) != (wantErr == nil) {
		w.t.Fatalf("step %d %s: lazy (%#x, fast %v, err %v), eager (%#x, fast %v, err %v)",
			w.step, op, got, gotFast, gotErr, want, wantFast, wantErr)
	}
	return got
}

func (w *twin) get(hint int64) int64 {
	w.t.Helper()
	a, f, err := w.cache.Get(hint)
	ea, ef, eerr := w.ec.Get(hint)
	return w.result("Get", a, ea, f, ef, err, eerr)
}

func (w *twin) alloc(hint int64) int64 {
	w.t.Helper()
	a, err := w.zone.AllocPageHint(hint)
	ea, eerr := w.ez.AllocPageHint(hint)
	return w.result("AllocPageHint", a, ea, false, false, err, eerr)
}

func (w *twin) free(addr int64) {
	w.t.Helper()
	w.result("FreePage", 0, 0, false, false, w.zone.FreePage(addr), w.ez.FreePage(addr))
}

func (w *twin) release(addr int64) {
	w.t.Helper()
	w.result("Release", 0, 0, false, false, w.cache.Release(addr), w.ez.FreePage(addr))
}

func (w *twin) refill() {
	w.cache.Refill()
	w.ec.Refill()
}

// check compares the counters; pinned also compares PinnedPages, which
// the eager model computes in O(buckets).
func (w *twin) check(pinned bool) {
	w.t.Helper()
	if w.zone.Stats() != w.ez.stats || w.zone.FreePages() != w.ez.FreePages() {
		w.t.Fatalf("step %d: zone stats %+v free %d, eager %+v free %d",
			w.step, w.zone.Stats(), w.zone.FreePages(), w.ez.stats, w.ez.FreePages())
	}
	if w.cache == nil {
		return
	}
	h, s := w.cache.Stats()
	if h != w.ec.hits || s != w.ec.slow {
		w.t.Fatalf("step %d: cache stats %d/%d, eager %d/%d", w.step, h, s, w.ec.hits, w.ec.slow)
	}
	if pinned && w.cache.PinnedPages() != w.ec.PinnedPages() {
		w.t.Fatalf("step %d: PinnedPages %d, eager %d", w.step, w.cache.PinnedPages(), w.ec.PinnedPages())
	}
}

// TestLazyMatchesEager drives the lazy allocator and the eager reference
// through the same random operations, zone allocations before the cache
// attaches included, and requires identical addresses, fast flags,
// errors and counters after every step.
func TestLazyMatchesEager(t *testing.T) {
	cases := []struct {
		ranks, per, pre, steps int
	}{
		{2, 2, 0, 3000},
		{2, 2, 300, 3000},
		{1, 1, 600, 3000},
		{1, 3, 50, 2000},
		{1, pagesPerBucket + 1, 300, 300}, // more than a bucket holds
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("ranks%d_per%d_pre%d", tc.ranks, tc.per, tc.pre), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(i), 42))
			w := newTwin(t, tc.ranks)
			var live []int64
			pages := w.zone.Size / addrmap.PageSize
			// hint picks a live page, a random page, or a page in one of
			// two hot buckets, which the run exhausts.
			hint := func() int64 {
				switch r := rng.IntN(4); {
				case r == 0 && len(live) > 0:
					return live[rng.IntN(len(live))]
				case r == 1:
					return w.zone.bucketPage(rng.IntN(2), rng.IntN(pagesPerBucket))
				case r == 2:
					return NoHint
				}
				return testBase + rng.Int64N(pages)*addrmap.PageSize
			}
			// victim picks a live page, or any page at all: freeing a page
			// the cache still holds or one never allocated must behave the
			// same in both.
			victim := func() int64 {
				if len(live) > 0 && rng.IntN(8) != 0 {
					i := rng.IntN(len(live))
					a := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					return a
				}
				return w.zone.bucketPage(rng.IntN(w.zone.Buckets()), rng.IntN(4))
			}
			keep := func(a int64) {
				if a != 0 {
					live = append(live, a)
				}
			}
			for s := 0; s < tc.pre; s++ {
				if rng.IntN(3) == 0 {
					w.free(victim())
				} else {
					keep(w.alloc(hint()))
				}
				w.check(false)
			}
			w.attach(tc.per)
			for s := 0; s < tc.steps; s++ {
				switch r := rng.IntN(20); {
				case r < 7:
					keep(w.get(hint()))
				case r < 10:
					keep(w.get(NoHint))
				case r < 15:
					w.release(victim())
				case r < 17:
					keep(w.alloc(hint()))
				case r < 19:
					w.free(victim())
				default:
					w.refill()
				}
				w.check(true)
			}
		})
	}
}

// TestLazyMatchesEagerRX runs the NetDIMM RX allocator pattern (a no-hint
// DMA buffer, a page in its sub-array for the clone, both released) until
// the cache has long been drained, against the eager reference.
func TestLazyMatchesEagerRX(t *testing.T) {
	w := newTwin(t, 1)
	w.attach(2)
	const packets = 50_000
	for p := 0; p < packets; p++ {
		rx := w.get(NoHint)
		skb := w.get(rx)
		w.release(rx)
		w.release(skb)
		w.check(p%1000 == 0 || p == packets-1)
	}
	if w.cache.PinnedPages() != 0 {
		t.Fatalf("PinnedPages = %d after %d packets, want a drained cache", w.cache.PinnedPages(), packets)
	}
}

// TestZoneAndCacheBuildIndependentOfSize pins construction at O(1): a 64GB
// zone and its cache cost the same allocations as a 16GB one.
func TestZoneAndCacheBuildIndependentOfSize(t *testing.T) {
	build := func(size int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := NewAllocCache(NewNetDIMMZone("NET_0", testBase, size), 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := build(16<<30), build(64<<30); small != large {
		t.Fatalf("allocs per build: 16GB %v, 64GB %v", small, large)
	}
}

func BenchmarkNewNetDIMMZoneAndCache(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewAllocCache(NewNetDIMMZone("NET_0", testBase, 16<<30), 2); err != nil {
			b.Fatal(err)
		}
	}
}
