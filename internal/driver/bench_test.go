package driver_test

// An external test package: the benchmarks build their machines through
// spec, which imports driver.

import (
	"testing"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/spec"
)

// fastPathRun bounds the packets one NetDIMM machine takes before the
// benchmarks build a fresh one: each RX takes both pages of one allocCache
// bucket, and 16,384 buckets stay on the fast path for 16,384 packets.
const fastPathRun = 8192

// benchNetDIMM runs one 1514 B packet per op through op on a NetDIMM
// machine built by Derived.NewNetDIMM, replacing the machine (off the
// clock) before its allocCache could drain, so every op is a fast-path
// packet. CI's bench-ab job gates ns/op and allocs/op against the base
// commit.
func benchNetDIMM(b *testing.B, op func(*driver.NetDIMMDriver, nic.Packet)) {
	d := spec.TableOne().MustDerive()
	var m *driver.NetDIMMDriver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%fastPathRun == 0 {
			b.StopTimer()
			if m != nil && m.Stats().AllocSlow != 0 {
				b.Fatalf("%d slow-path allocations in a fast-path run", m.Stats().AllocSlow)
			}
			var err error
			if m, err = d.NewNetDIMM(uint64(i/fastPathRun) + 1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		op(m, nic.Packet{ID: uint64(i), Size: 1514})
	}
}

// BenchmarkNetDIMMRX measures one 1514 B NetDIMM reception per op.
func BenchmarkNetDIMMRX(b *testing.B) {
	benchNetDIMM(b, func(m *driver.NetDIMMDriver, p nic.Packet) { m.RX(p) })
}

// BenchmarkNetDIMMTX measures one 1514 B NetDIMM transmission per op.
func BenchmarkNetDIMMTX(b *testing.B) {
	benchNetDIMM(b, func(m *driver.NetDIMMDriver, p nic.Packet) { m.TX(p) })
}
