package streamha_test

// Wire-path microbenchmarks: the frame codec on the TCP path and the
// in-memory latency scheduler.
//
//	go test -bench=BenchmarkWire -benchmem
//
// The encode benchmarks compare the length-prefixed binary codec against a
// gob encoding of the seed's frame shape, frozen in the bench harness; the
// transport itself speaks only the binary codec. The TCP publish benchmark
// runs the binary path end to end over a loopback socket, including the
// writer's batched single-flush drain. The scheduler benchmarks pit the timing wheel (the
// live Mem scheduler) against a verbatim copy of the seed's global-mutex
// container/heap scheduler under 8 concurrent senders. Bodies live in
// internal/experiment/wirebench.go so streamha-bench -fig wire measures
// exactly the same code.

import (
	"testing"

	"streamha/internal/experiment"
)

func BenchmarkWireEncode(b *testing.B) {
	b.Run("binary", experiment.BenchWireEncodeBinary)
	b.Run("gob-baseline", experiment.BenchWireEncodeGob)
}

func BenchmarkWireDecode(b *testing.B) {
	b.Run("binary", experiment.BenchWireDecodeBinary)
}

func BenchmarkWireTCPPublish(b *testing.B) {
	b.Run("binary", experiment.BenchWireTCPPublish)
}

func BenchmarkWireSched(b *testing.B) {
	b.Run("wheel", experiment.BenchWireSchedWheel)
	b.Run("seed-heap", experiment.BenchWireSchedSeed)
}
