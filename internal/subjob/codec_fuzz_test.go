package subjob

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// checkpointFrame is what every checkpoint kind's decoded value offers.
type checkpointFrame interface {
	AppendTo([]byte) []byte
	EncodedSize() int
}

// decodeAny decodes a checkpoint payload of any kind.
func decodeAny(b []byte) (checkpointFrame, error) {
	if IsPartial(b) {
		return DecodePartial(b)
	}
	s, d, err := DecodeCheckpoint(b)
	switch {
	case err != nil:
		return nil, err
	case d != nil:
		return d, nil
	}
	return s, nil
}

// countFields lists every count field of every frame kind with the
// payload bytes that are valid up to it: headers carry an empty subjob ID
// (and PrevSeq 0 for deltas) and every earlier count is zero or one.
var countFields = []struct{ name, prefix string }{
	{"snapshot/consumed", snapHdr},
	{"snapshot/pe-states", snapHdr + "\x00"},
	{"snapshot/pipes", snapHdr + "\x00\x00"},
	{"snapshot/pipe-elements", snapHdr + "\x00\x00\x01"},
	{"snapshot/input", snapHdr + "\x00\x00\x00"},
	{"snapshot/output-elements", snapHdr + "\x00\x00\x00\x00" + "\x00\x00\x00"},
	{"delta/consumed", deltaHdr + "\x01"},
	{"delta/pe-table", deltaHdr + "\x00"},
	{"delta/pipes", deltaHdr + "\x00\x00"},
	{"delta/pipe-elements", deltaHdr + "\x00\x00\x01\x01"},
	{"delta/input", deltaHdr + "\x00\x00\x00\x01"},
	{"delta/output-elements", deltaHdr + "\x00\x00\x00\x00\x01" + "\x00\x00\x00\x00"},
	{"partial/consumed", partialHdr},
	{"partial/pe-table", partialHdr + "\x00" + "\x00\x00"},
}

const snapHdr, deltaHdr, partialHdr = "SHS2\x01\x00", "SHD2\x01\x00\x00", "SHP2\x01\x00"

func withCount(prefix string, n uint64) []byte {
	return binary.AppendUvarint([]byte(prefix), n)
}

// TestDecodeRejectsOversizedCounts gives every count field of every frame
// kind a count whose entries cannot fit in the payload. Each must be an
// error: neither a makeslice panic (2^62) nor an allocation the process
// cannot survive (2^33).
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	for _, field := range countFields {
		t.Run(field.name, func(t *testing.T) {
			for _, n := range []uint64{1 << 33, 1 << 62, math.MaxUint64} {
				payload := withCount(field.prefix, n)
				if _, err := decodeAny(payload); err == nil {
					t.Errorf("count %d decoded without error", n)
				}
				if _, err := PeekCheckpoint(payload); err != nil {
					t.Errorf("count %d: header rejected: %v", n, err)
				}
			}
		})
	}
}

// FuzzDecodeCheckpoint runs the decoders that take checkpoint bytes from
// peers and from disk. Oracles: no panic, and every payload that decodes
// re-encodes to bytes that decode and re-encode to themselves (a fixed
// point; the input itself may differ, e.g. in non-canonical varints) at
// the size EncodedSize predicts, under a header PeekCheckpoint agrees
// with.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, enc := range [][]byte{
		goldenSnapshot().AppendTo(nil),
		goldenDelta().AppendTo(nil),
		goldenPartial().AppendTo(nil),
		(&Snapshot{}).AppendTo(nil),
	} {
		f.Add(enc)
	}
	for _, field := range countFields {
		f.Add(withCount(field.prefix, 1<<62))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = DecodePartial(b)
		info, peekErr := PeekCheckpoint(b)
		v, err := decodeAny(b)
		if err != nil {
			return
		}
		if peekErr != nil {
			t.Fatalf("decoded, but PeekCheckpoint failed: %v", peekErr)
		}
		enc := v.AppendTo(nil)
		if v.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize %d, encoding is %d bytes", v.EncodedSize(), len(enc))
		}
		v2, err := decodeAny(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if again := v2.AppendTo(nil); !bytes.Equal(again, enc) {
			t.Fatalf("no fixed point:\n first %x\nsecond %x", enc, again)
		}
		if info2, _ := PeekCheckpoint(enc); info2 != info {
			t.Fatalf("header changed across re-encode: %+v vs %+v", info, info2)
		}
	})
}
