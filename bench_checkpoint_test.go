package streamha_test

// Checkpoint-path microbenchmarks: the binary snapshot codec, the pause
// window, and the bytes shipped per sweep.
//
//	go test -bench=BenchmarkCheckpoint -benchmem
//
// The encode benchmarks compare the binary snapshot codec against the
// seed's gob encoding, frozen in internal/experiment as the baseline; the
// subjob package itself speaks only the binary codec. The pause benchmarks compare the seed protocol — capture,
// encode and send all inside the pause — against the split pipeline where
// the pause covers only the in-memory capture, full and incremental. The
// bytes benchmarks measure shipped volume per sweep at ~1% state churn:
// gob fulls vs binary fulls vs deltas with every-8th-sweep rebases.
// Bodies live in internal/experiment/checkpointbench.go so streamha-bench
// -fig checkpoint measures exactly the same code.

import (
	"testing"

	"streamha/internal/experiment"
)

func BenchmarkCheckpointEncode(b *testing.B) {
	b.Run("binary", experiment.BenchCheckpointEncodeBinary)
	b.Run("gob-baseline", experiment.BenchCheckpointEncodeGob)
}

func BenchmarkCheckpointDecode(b *testing.B) {
	b.Run("binary", experiment.BenchCheckpointDecodeBinary)
}

func BenchmarkCheckpointPause(b *testing.B) {
	b.Run("seed-gob-baseline", experiment.BenchCheckpointPauseSeedGob)
	b.Run("split-full", experiment.BenchCheckpointPauseSplit)
	b.Run("split-delta", experiment.BenchCheckpointPauseDelta)
}

func BenchmarkCheckpointSweepBytes(b *testing.B) {
	b.Run("full-gob-baseline", experiment.BenchCheckpointBytesFullGob)
	b.Run("full-binary", experiment.BenchCheckpointBytesFullBinary)
	b.Run("delta-rebase8", experiment.BenchCheckpointBytesDelta)
}
