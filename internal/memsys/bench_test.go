package memsys_test

import (
	"testing"

	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/topology"
	"rair/internal/workload"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := memsys.NewCache(32<<10, 2, 64)
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

func BenchmarkCacheAccessStream(b *testing.B) {
	c := memsys.NewCache(32<<10, 2, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

func BenchmarkL2Bank16Way(b *testing.B) {
	c := memsys.NewCache(256<<10, 16, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%8192) * 64)
	}
}

// prewarmAccesses matches harness.PrewarmAccesses, the per-core warm-up
// every PARSEC run performs.
const prewarmAccesses = 60000

// BenchmarkPrewarm times memsys.New plus the cache warm-up of the Fig. 17
// PARSEC scenario: the four PARSEC proxies on the quadrants of an 8×8 mesh.
// Building the address streams is excluded from the timing.
func BenchmarkPrewarm(b *testing.B) {
	regs := region.Quadrants(topology.NewMesh(8, 8))
	profiles := workload.Profiles()
	inject := func(int, *msg.Packet, int64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		streams := make([]memsys.AddressStream, regs.Mesh().N())
		for node := range streams {
			app := regs.AppAt(node)
			streams[node] = workload.NewStream(profiles[app], app, node)
		}
		b.StartTimer()
		sys := memsys.New(memsys.DefaultSystemConfig(), regs, streams, 1, inject)
		sys.Prewarm(prewarmAccesses)
	}
}
