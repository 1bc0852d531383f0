package fabric_test

// An external test package: the benchmark builds its clos through spec,
// which imports fabric.

import (
	"testing"

	"netdimm/internal/ethernet"
	"netdimm/internal/fabric"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// BenchmarkFabricForward measures one cross-rack traversal of the
// leaf/spine clos per op: uplink, source leaf, ECMP-picked spine and
// destination leaf (three switch hops), with the engine drained each round
// so the queues stay warm but empty. CI's bench-ab job gates its ns/op and
// allocs/op against the base commit.
func BenchmarkFabricForward(b *testing.B) {
	sp := spec.TableOne()
	sp.Fabric.Leaves = 2
	sp.Fabric.Spines = 2
	d := sp.MustDerive()
	eng := sim.NewEngine()
	topo := d.NewTopology(fabric.SingleEngine(eng), 8, 64)
	src, dst := 0, 5 // host 5 sits in the other leaf: the full 3-hop path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delivered := false
		topo.Inject(src, dst, ethernet.Frame{ID: uint64(i), Bytes: 1500},
			func(ethernet.Frame) { delivered = true })
		eng.Run()
		if !delivered {
			b.Fatal("frame not delivered")
		}
	}
}
