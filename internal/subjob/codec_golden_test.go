package subjob

import (
	"bytes"
	"encoding/hex"
	"testing"

	"streamha/internal/element"
	"streamha/internal/queue"
	"streamha/internal/transport"
)

// goldenSnapshot, goldenDelta, goldenPartial and goldenFrame are fixed
// values of every checkpoint frame kind and of one transport frame. Their
// encodings are pinned by TestCodecGoldenBytes.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		SubjobID: "job/sj",
		Consumed: map[string]uint64{"in/b": 300, "in/a": 7},
		PEStates: [][]byte{{1, 2, 3}, nil},
		Pipes:    [][]element.Element{{{ID: 1, Origin: 2, Seq: 3, Payload: -4, Key: 5}}},
		Input:    []queue.In{{Stream: "in/a", Elem: element.Element{ID: 8, Seq: 8, Payload: 64}}},
		Output: queue.OutputSnapshot{StreamID: "job/out", Floor: 2, NextSeq: 4,
			Buf: []element.Element{{ID: 3, Origin: 1, Seq: 3, Payload: 9}}},
		StateUnits: 2,
	}
}

func goldenDelta() *Delta {
	return &Delta{
		SubjobID: "job/sj",
		PrevSeq:  41,
		Consumed: map[string]uint64{"in/a": 9, "in/b": 301},
		PEDeltas: [][]byte{nil, {0, 1, 0xAA}, nil},
		PEFull:   [][]byte{nil, nil, {7, 7}},
		Pipes:    [][]element.Element{{{ID: 2, Seq: 2, Payload: 5}}, nil},
		PipeSet:  []bool{true, false},
		Input:    []queue.In{{Stream: "in/b", Elem: element.Element{ID: 9, Seq: 301, Key: 1}}},
		HasInput: true,
		Output: queue.OutputDelta{StreamID: "job/out", Floor: 3, NextSeq: 6, FromSeq: 4,
			New: []element.Element{{ID: 4, Seq: 4}, {ID: 5, Seq: 5, Payload: -1}}},
		HasOutput:  true,
		StateUnits: 1,
	}
}

func goldenPartial() *Partial {
	return &Partial{
		SubjobID:   "job/sj",
		Consumed:   map[string]uint64{"in/a": 12, "in/b": 400},
		PEPatches:  [][]byte{{0, 2, 0xBB, 0xCC}, nil, nil},
		PEFull:     [][]byte{nil, {1}, nil},
		OutNext:    77,
		ColdBytes:  4096,
		StateUnits: 1,
	}
}

func goldenFrame() transport.Message {
	return transport.Message{
		Kind: transport.KindCheckpoint, Stream: "job/sj", Seq: 42, Command: "cmd",
		ElementCount: 3, State: []byte{0xDE, 0xAD},
		Elements: []element.Element{{ID: 1, Origin: -1, Seq: 1, Payload: 2, Key: 3}},
	}
}

// recodeCheckpoint decodes a checkpoint payload of any kind and
// re-encodes it.
func recodeCheckpoint(b []byte) ([]byte, error) {
	v, err := decodeAny(b)
	if err != nil {
		return nil, err
	}
	return v.AppendTo(nil), nil
}

// recodeFrame decodes one wire frame and re-encodes it.
func recodeFrame(b []byte) ([]byte, error) {
	from, to, msg, _, err := transport.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	return transport.AppendFrame(nil, from, to, &msg), nil
}

// TestCodecGoldenBytes pins the SHS2/SHD2/SHP2 checkpoint formats and the
// binary wire frame to hex literals. The on-disk catalog and every peer
// depend on these bytes: a change here is a format break, not a test to
// re-record. Each literal must also decode and re-encode to itself.
func TestCodecGoldenBytes(t *testing.T) {
	frame := goldenFrame()
	cases := []struct {
		name   string
		got    []byte
		recode func([]byte) ([]byte, error)
		want   string
	}{
		{"snapshot", goldenSnapshot().AppendTo(nil), recodeCheckpoint,
			"5348533201066a6f622f736a0204696e2f610704696e2f62ac020203010203000101000000000000000100000000000000020000000000000003fffffffffffffffc00000000000000050104696e2f6100000000000000080000000000000000000000000000000800000000000000400000000000000000076a6f622f6f75740204010000000000000003000000000000000100000000000000030000000000000009000000000000000002"},
		{"delta", goldenDelta().AppendTo(nil), recodeCheckpoint,
			"5348443201066a6f622f736a29010204696e2f610904696e2f62ad02030001030001aa020207070201010000000000000002000000000000000000000000000000020000000000000005000000000000000000010104696e2f6200000000000000090000000000000000000000000000012d0000000000000000000000000000000101076a6f622f6f75740306040200000000000000040000000000000000000000000000000400000000000000000000000000000000000000000000000500000000000000000000000000000005ffffffffffffffff000000000000000001"},
		{"partial", goldenPartial().AppendTo(nil), recodeCheckpoint,
			"5348503201066a6f622f736a0204696e2f610c04696e2f6290034d80200301040002bbcc0201010001"},
		{"frame", transport.AppendFrame(nil, "m1/sj", "m2/sj", &frame), recodeFrame,
			"4605056d312f736a056d322f736a066a6f622f736a2a03636d640302dead010000000000000001ffffffffffffffff000000000000000100000000000000020000000000000003"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := tc.recode(want); err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s golden bytes do not round-trip: err=%v\n got %x", tc.name, err, again)
		}
	}
}
