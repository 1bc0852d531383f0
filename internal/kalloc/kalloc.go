// Package kalloc models the Linux kernel physical-page allocator as the
// paper extends it: the per-NetDIMM NET_i zones, the
// __alloc_netdimm_pages(zone, hint) API that allocates a page in the same
// bank sub-array as a hint address, and the allocCache pre-allocation hash
// table the NetDIMM driver uses to keep DMA-buffer allocation off the
// packet critical path (paper Sec. 4.2.1 and 4.2.2).
package kalloc

import (
	"fmt"

	"netdimm/internal/addrmap"
)

// NoHint requests a page with no sub-array affinity — the paper's
// __alloc_netdimm_pages(zone, -1).
const NoHint int64 = -1

// Zone is one NET_i zone: the local DRAM of a NetDIMM, allocated page by
// page and organised by (rank, bank, sub-array) for affine allocation.
type Zone struct {
	Name string
	Base int64 // first physical address
	Size int64

	ranks int

	// Per-(rank, bank, sub-array) bookkeeping, the attached allocCache's
	// included, exists only for buckets something has touched: a zone and
	// its cache build in O(1) and grow with the pages a machine uses, not
	// with its 16GB. index maps a touched bucket's key to its record in
	// touched. Records stay in first-touch order, so nothing ever ranges
	// over the map.
	index   map[int32]int32
	touched []bucket
	// reserve is the number of fresh pages, indices [0, reserve), that the
	// attached allocCache holds in every bucket it found untouched; 0
	// until a cache attaches. An untouched bucket is in exactly the state
	// an eager prefill would have left it in: those pages allocated and
	// held by the cache, none freed.
	reserve int
	// firstFree is a lower bound on the first bucket key with a free page:
	// every bucket below it is exhausted, so no-hint scans start here.
	firstFree int

	allocCount int64
	stats      ZoneStats
}

// ZoneStats counts allocator events.
type ZoneStats struct {
	Allocs        uint64
	Frees         uint64
	HintSatisfied uint64
	HintFallback  uint64 // hint given but the sub-array was exhausted
	Failures      uint64
}

// bucket is one touched (rank, bank, sub-array): it hands out its pages
// lazily (fresh counter), recycles them LIFO via a free list, and tracks
// which of its pages are allocated with one bit per page. It also holds
// the allocCache's ready pages of the sub-array: its reserved fresh pages
// [0, reserved), then the pages in cached, the next one on top.
type bucket struct {
	key       int32
	fresh     int     // next fresh page index in [0, pagesPerBucket]
	freed     []uint8 // indices of freed pages, most recent last
	allocated [pagesPerBucket / 64]uint64

	reserved int
	cached   []int64
}

// pagesPerBucket is the number of 4KB pages per (bank, sub-array) pair:
// 128 rows x 2 half-row pages.
const pagesPerBucket = addrmap.RowsPerSubarray * 2

// NewNetDIMMZone returns a NET_i zone over the NetDIMM's local memory. The
// size must be a whole number of 8GB ranks (paper Fig. 9a geometry).
func NewNetDIMMZone(name string, base, size int64) *Zone {
	if base%addrmap.PageSize != 0 || size <= 0 || size%addrmap.RankBytes != 0 {
		panic(fmt.Sprintf("kalloc: zone base %#x not page aligned or size %#x not a positive multiple of the 8GB rank", base, size))
	}
	return &Zone{Name: name, Base: base, Size: size, ranks: int(size / addrmap.RankBytes)}
}

// lookup returns the record of bucket key, or nil if nothing touched it.
// The pointer is valid until the next record is added.
func (z *Zone) lookup(key int) *bucket {
	if i, ok := z.index[int32(key)]; ok {
		return &z.touched[i]
	}
	return nil
}

// bucketFor returns the record of bucket key. A first touch adds it in
// the state an untouched bucket stands for: the cache's reserved pages
// allocated, none freed.
func (z *Zone) bucketFor(key int) *bucket {
	if b := z.lookup(key); b != nil {
		return b
	}
	if z.index == nil {
		z.index = make(map[int32]int32)
	}
	b := bucket{key: int32(key), fresh: z.reserve, reserved: z.reserve}
	for i := 0; i < z.reserve; i++ {
		b.allocated[i/64] |= 1 << uint(i%64)
	}
	z.index[int32(key)] = int32(len(z.touched))
	z.touched = append(z.touched, b)
	return &z.touched[len(z.touched)-1]
}

// hasFree reports whether bucket key has a page to give, without
// touching it.
func (z *Zone) hasFree(key int) bool {
	if b := z.lookup(key); b != nil {
		return len(b.freed) > 0 || b.fresh < pagesPerBucket
	}
	return z.reserve < pagesPerBucket
}

// locate returns the bucket key of a page in the zone and the page's index
// within its bucket (the inverse of bucketPage).
func (z *Zone) locate(addr int64) (key, idx int) {
	local := addr - z.Base
	l := addrmap.DecodeRank(local)
	return int(addrmap.SubarrayOf(local)), l.Row<<1 | int(l.Column>>addrmap.PageShift)
}

// Stats returns a copy of the zone statistics.
func (z *Zone) Stats() ZoneStats { return z.stats }

// Contains reports whether the physical address belongs to the zone.
func (z *Zone) Contains(phys int64) bool { return phys >= z.Base && phys < z.Base+z.Size }

// FreePages returns the number of currently unallocated pages.
func (z *Zone) FreePages() int64 {
	return z.Size/addrmap.PageSize - z.allocCount
}

// AllocPage allocates one page with no affinity requirement. It returns the
// physical address of the page.
func (z *Zone) AllocPage() (int64, error) {
	return z.AllocPageHint(NoHint)
}

// AllocPageHint implements __alloc_netdimm_pages(zone, hint): it allocates
// one page, preferring the same (rank, bank, sub-array) as the hint
// address. The API is best effort (paper Sec. 4.2.1): when the hinted
// sub-array has no free page, any free page in the zone is returned.
func (z *Zone) AllocPageHint(hint int64) (int64, error) {
	var addr int64 = -1
	if hint != NoHint {
		if !z.Contains(hint) {
			return 0, fmt.Errorf("kalloc: hint %#x outside zone %s", hint, z.Name)
		}
		addr = z.allocFromBucket(int(addrmap.SubarrayOf(hint - z.Base)))
		if addr >= 0 {
			z.stats.HintSatisfied++
		} else {
			z.stats.HintFallback++
		}
	}
	if addr < 0 {
		addr = z.allocAnyBucket()
	}
	if addr < 0 {
		z.stats.Failures++
		return 0, fmt.Errorf("kalloc: zone %s exhausted", z.Name)
	}
	return addr, nil
}

// allocFromBucket allocates a page of bucket key, its most recently freed
// one first, or returns -1 if the bucket is exhausted. AllocPageHint and
// the allocCache fill share it, so allocation accounting has one
// authority.
func (z *Zone) allocFromBucket(key int) int64 {
	if !z.hasFree(key) {
		return -1
	}
	b := z.bucketFor(key)
	var idx int
	if n := len(b.freed); n > 0 {
		idx = int(b.freed[n-1])
		b.freed = b.freed[:n-1]
	} else {
		idx = b.fresh
		b.fresh++
	}
	b.allocated[idx/64] |= 1 << uint(idx%64)
	z.allocCount++
	z.stats.Allocs++
	return z.bucketPage(key, idx)
}

// allocAnyBucket allocates from the first bucket, in key order, that has a
// free page.
func (z *Zone) allocAnyBucket() int64 {
	for ; z.firstFree < z.Buckets(); z.firstFree++ {
		if z.hasFree(z.firstFree) {
			return z.allocFromBucket(z.firstFree)
		}
	}
	return -1
}

// bucketPage computes the physical address of page idx within bucket key,
// inverting the SubarrayKey layout: key = (rank*16 + bank)*512 + subarray.
func (z *Zone) bucketPage(key, idx int) int64 {
	sub := key % addrmap.SubarraysPerBank
	bank := (key / addrmap.SubarraysPerBank) % addrmap.BanksPerRank
	rank := key / addrmap.SubarraysPerRank
	loc := addrmap.Location{
		Rank:     rank,
		Bank:     bank,
		Subarray: sub,
		Row:      idx >> 1,
		Column:   int64(idx&1) << addrmap.PageShift,
	}
	return z.Base + addrmap.EncodeRank(loc)
}

// FreePage returns a page to the zone. Double frees and foreign pages are
// reported as errors.
func (z *Zone) FreePage(addr int64) error {
	if !z.Contains(addr) {
		return fmt.Errorf("kalloc: freeing %#x outside zone %s", addr, z.Name)
	}
	if addr%addrmap.PageSize != 0 {
		return fmt.Errorf("kalloc: freeing unaligned address %#x", addr)
	}
	key, idx := z.locate(addr)
	mask := uint64(1) << uint(idx%64)
	allocated := idx < z.reserve
	b := z.lookup(key)
	if b != nil {
		allocated = b.allocated[idx/64]&mask != 0
	}
	if !allocated {
		return fmt.Errorf("kalloc: double free of %#x in zone %s", addr, z.Name)
	}
	if b == nil {
		b = z.bucketFor(key)
	}
	b.allocated[idx/64] &^= mask
	b.freed = append(b.freed, uint8(idx))
	z.allocCount--
	z.stats.Frees++
	if key < z.firstFree {
		z.firstFree = key
	}
	return nil
}

// SubarrayKeyOf returns the allocCache bucket key of a physical address in
// the zone.
func (z *Zone) SubarrayKeyOf(phys int64) (addrmap.SubarrayKey, error) {
	if !z.Contains(phys) {
		return 0, fmt.Errorf("kalloc: %#x outside zone %s", phys, z.Name)
	}
	return addrmap.SubarrayOf(phys - z.Base), nil
}

// Buckets returns the number of (rank, bank, sub-array) buckets — 8K per
// rank (paper Sec. 4.2.2).
func (z *Zone) Buckets() int { return z.ranks * addrmap.SubarraysPerRank }
