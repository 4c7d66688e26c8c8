package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"streamha/internal/element"
)

func codecTestMessages() []Message {
	return []Message{
		{},
		{Kind: KindData, Stream: "job/s1", Elements: []element.Element{
			{ID: 1, Origin: 123456789, Seq: 1, Payload: -42},
			{ID: 18446744073709551615, Origin: -1, Seq: 99, Payload: 7},
		}},
		{Kind: KindAck, Stream: "job/s2", Seq: 18446744073709551615},
		{Kind: KindPing, Stream: "det/1", Seq: 3},
		{Kind: KindPong, Stream: "det/1", Seq: 3},
		{Kind: KindCheckpoint, Stream: "job/sj0", State: []byte{0, 1, 2, 255, 128}, ElementCount: 7},
		{Kind: KindReadStateReq, Stream: "job/sj1"},
		{Kind: KindReadStateResp, Stream: "job/sj1", State: bytes.Repeat([]byte{0xAB}, 1000), ElementCount: 250},
		{Kind: KindControl, Stream: "job/sj0", Command: "switchover", Seq: 12},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, want := range codecTestMessages() {
		buf := AppendFrame(nil, "sender-node", "receiver-node", &want)
		from, to, got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("msg %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if from != "sender-node" || to != "receiver-node" {
			t.Fatalf("msg %d: endpoints %q -> %q", i, from, to)
		}
		if !reflect.DeepEqual(normalizeMsg(got), normalizeMsg(want)) {
			t.Fatalf("msg %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// normalizeMsg maps empty slices to nil so DeepEqual compares logical
// content, not allocation shape.
func normalizeMsg(m Message) Message {
	if len(m.Elements) == 0 {
		m.Elements = nil
	}
	if len(m.State) == 0 {
		m.State = nil
	}
	return m
}

func TestFrameStreamConcatenation(t *testing.T) {
	msgs := codecTestMessages()
	var buf []byte
	for i := range msgs {
		buf = AppendFrame(buf, NodeID("a"), NodeID("b"), &msgs[i])
	}
	rest := buf
	for i := range msgs {
		_, _, got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeMsg(got), normalizeMsg(msgs[i])) {
			t.Fatalf("frame %d mismatch", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	msg := Message{Kind: KindData, Stream: "s", Command: "c", Seq: 5,
		State:    []byte{1, 2, 3},
		Elements: []element.Element{{ID: 9, Seq: 1}}}
	full := AppendFrame(nil, "from", "to", &msg)
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(full))
		}
	}
}

func TestDecodeFrameJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		// Must not panic; errors are fine, and accidental decodes of random
		// bytes are acceptable as long as they terminate.
		_, _, _, _, _ = DecodeFrame(junk)
	}
}

func TestDecodeFrameRejectsOversizedLength(t *testing.T) {
	huge := AppendFrame(nil, "a", "b", &Message{})
	huge[0] = 0xFF // corrupt the length prefix into a longer varint
	if _, _, _, _, err := DecodeFrame(huge); err == nil {
		t.Fatal("corrupt length prefix decoded")
	}
}

func TestDecodeFrameRejectsElementCountOverrun(t *testing.T) {
	msg := Message{Kind: KindData, Elements: []element.Element{{ID: 1}}}
	buf := AppendFrame(nil, "a", "b", &msg)
	// The element count varint is immediately before the 32-byte element
	// body; bump it so it claims more elements than the payload holds.
	buf[len(buf)-element.EncodedSize-1] = 200
	if _, _, _, _, err := DecodeFrame(buf); err == nil {
		t.Fatal("element-count overrun decoded")
	}
}

// startTCPPair builds a listening receiver segment plus a sender segment
// that routes "dst" to it, registers a collector on the receiver, and
// returns (sender endpoint, receiver segment, collector, cleanup).
func startTCPPair(t *testing.T) (Endpoint, *TCP, *collector, func()) {
	t.Helper()
	recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	if _, err := recv.Register("dst", c.handle); err != nil {
		recv.Close()
		t.Fatal(err)
	}
	send, err := NewTCP(TCPConfig{Peers: map[NodeID]string{"dst": recv.Addr()}})
	if err != nil {
		recv.Close()
		t.Fatal(err)
	}
	src, err := send.Register("src", func(NodeID, Message) {})
	if err != nil {
		send.Close()
		recv.Close()
		t.Fatal(err)
	}
	return src, recv, &c, func() {
		send.Close()
		recv.Close()
	}
}

// TestCrossCodecCompatibility sends a data frame and a control frame over
// a real socket and checks both arrive intact and in order. The binary
// codec is the only one left on the wire; its SHG1 gob counterpart is now
// asserted dropped by TestUnknownPreambleConnectionDropped/gob-preamble.
func TestCrossCodecCompatibility(t *testing.T) {
	t.Run("send-binary", func(t *testing.T) {
		src, _, c, cleanup := startTCPPair(t)
		defer cleanup()
		want := []element.Element{{ID: 7, Origin: 1, Seq: 1, Payload: 64}}
		if err := src.Send("dst", Message{Kind: KindData, Stream: "s", Elements: want}); err != nil {
			t.Fatal(err)
		}
		if err := src.Send("dst", Message{Kind: KindControl, Stream: "ctl", Command: "activate", Seq: 2}); err != nil {
			t.Fatal(err)
		}
		got := c.waitFor(t, 2)
		if got[0].Elements[0] != want[0] || got[0].Stream != "s" {
			t.Fatalf("data frame %+v", got[0])
		}
		if got[1].Command != "activate" || got[1].Seq != 2 {
			t.Fatalf("control frame %+v", got[1])
		}
	})
}

// TestUnknownPreambleConnectionDropped opens raw connections that do not
// start with the SHB1 preamble — junk, and the retired SHG1 gob preamble
// followed by a real gob-encoded frame — and waits for the server to close
// each socket. Nothing may be delivered.
func TestUnknownPreambleConnectionDropped(t *testing.T) {
	var gobFrame bytes.Buffer
	gobFrame.WriteString("SHG1")
	if err := gob.NewEncoder(&gobFrame).Encode(&tcpFrame{From: "src", To: "dst",
		Msg: Message{Kind: KindData, Stream: "s", Elements: []element.Element{{ID: 1, Seq: 1}}}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"junk", []byte("JUNKJUNKJUNK")},
		{"gob-preamble", gobFrame.Bytes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			var c collector
			if _, err := recv.Register("dst", c.handle); err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.payload); err != nil {
				t.Fatal(err)
			}
			// The server never writes, so Read returns only when it closes
			// the socket: EOF, or a reset if it closed with bytes unread.
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			_, err = conn.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("server kept the connection open: Read = %v", err)
			}
			if c.count() != 0 {
				t.Fatalf("dropped connection delivered %d messages", c.count())
			}
		})
	}
}

func TestStrictRoutes(t *testing.T) {
	seg, err := NewTCP(TCPConfig{
		Peers:        map[NodeID]string{"known": "127.0.0.1:1"},
		StrictRoutes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var c collector
	if _, err := seg.Register("local", c.handle); err != nil {
		t.Fatal(err)
	}
	src, _ := seg.Register("src", func(NodeID, Message) {})
	if err := src.Send("nowhere", Message{Kind: KindData}); err != ErrNoRoute {
		t.Fatalf("unroutable destination: got %v, want ErrNoRoute", err)
	}
	// A routed-but-unreachable peer still drops silently: that models a
	// machine failure, not a misconfiguration.
	if err := src.Send("known", Message{Kind: KindPing}); err != nil {
		t.Fatalf("unreachable peer: got %v, want silent drop", err)
	}
	if err := src.Send("local", Message{Kind: KindData}); err != nil {
		t.Fatalf("local loopback: %v", err)
	}
	c.waitFor(t, 1)
}

func TestWireCounters(t *testing.T) {
	src, recv, c, cleanup := startTCPPair(t)
	defer cleanup()
	const frames = 20
	for i := 1; i <= frames; i++ {
		if err := src.Send("dst", Message{Kind: KindData, Stream: "s", Seq: uint64(i),
			Elements: []element.Element{{ID: uint64(i), Seq: uint64(i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	c.waitFor(t, frames)

	// Sender-side counters. src's segment is reachable via its endpoint's
	// network; grab it through the recv loopback instead: count on both.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rs := recv.Stats().Wire
		if rs.FramesRecv == frames && rs.BytesRecv > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver wire counters %+v", rs)
		}
		time.Sleep(time.Millisecond)
	}

	raw, err := json.Marshal(recv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"wire"`)) {
		t.Fatalf("TCP stats JSON missing wire section: %s", raw)
	}
}

func TestSenderWireCounters(t *testing.T) {
	recv, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var c collector
	if _, err := recv.Register("dst", c.handle); err != nil {
		t.Fatal(err)
	}
	send, err := NewTCP(TCPConfig{Peers: map[NodeID]string{"dst": recv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	src, _ := send.Register("src", func(NodeID, Message) {})
	const frames = 10
	for i := 0; i < frames; i++ {
		_ = src.Send("dst", Message{Kind: KindAck, Stream: "s", Seq: uint64(i + 1)})
	}
	c.waitFor(t, frames)
	ws := send.Stats().Wire
	if ws.FramesSent != frames {
		t.Fatalf("frames sent %d, want %d", ws.FramesSent, frames)
	}
	if ws.Batches == 0 || ws.Batches > frames {
		t.Fatalf("batches %d out of range [1, %d]", ws.Batches, frames)
	}
	if ws.BytesSent <= int64(magicLen) {
		t.Fatalf("bytes sent %d", ws.BytesSent)
	}
	if ws.FramesDropped != 0 {
		t.Fatalf("dropped %d frames on a healthy link", ws.FramesDropped)
	}
}

func TestMemStatsOmitWireSection(t *testing.T) {
	net := NewMem(MemConfig{})
	defer net.Close()
	if _, err := net.Register("dst", func(NodeID, Message) {}); err != nil {
		t.Fatal(err)
	}
	src, _ := net.Register("src", func(NodeID, Message) {})
	_ = src.Send("dst", Message{Kind: KindData, Elements: make([]element.Element, 2)})
	raw, err := json.Marshal(net.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"wire"`)) {
		t.Fatalf("in-memory stats JSON grew a wire section: %s", raw)
	}
	if !net.Stats().Wire.IsZero() {
		t.Fatal("in-memory wire counters moved")
	}
}

func TestUnreachablePeerCountsDrops(t *testing.T) {
	seg, err := NewTCP(TCPConfig{Peers: map[NodeID]string{"b": "127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	src, _ := seg.Register("a", func(NodeID, Message) {})
	const frames = 10
	for i := 0; i < frames; i++ {
		_ = src.Send("b", Message{Kind: KindPing})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if seg.Stats().Wire.FramesDropped == frames {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d frames, want %d", seg.Stats().Wire.FramesDropped, frames)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPConnCloseWaitsForWriter checks the close()/done contract directly:
// after close returns, the writer goroutine has exited even if frames were
// still queued for an unreachable peer.
func TestTCPConnCloseWaitsForWriter(t *testing.T) {
	var stats counters
	c := newTCPConn("127.0.0.1:1", &stats)
	for i := 0; i < 50; i++ {
		c.write(tcpFrame{From: "a", To: "b", Msg: Message{Kind: KindPing, Seq: uint64(i)}})
	}
	finished := make(chan struct{})
	go func() {
		c.close()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("close() did not return")
	}
	select {
	case <-c.done:
	default:
		t.Fatal("close() returned before the writer exited")
	}
	// Idempotent second close must also return.
	c.close()
}

// FuzzDecodeFrame runs the decoder that takes frame bytes from peers.
// Oracles: no panic, and every frame that decodes re-encodes to bytes that
// decode and re-encode to themselves (a fixed point; the input itself may
// differ, e.g. in non-canonical varints or trailing bytes).
func FuzzDecodeFrame(f *testing.F) {
	msgs := codecTestMessages()
	for i := range msgs {
		f.Add(AppendFrame(nil, "sender-node", "receiver-node", &msgs[i]))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		from, to, msg, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := AppendFrame(nil, from, to, &msg)
		from2, to2, msg2, n2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-encoding consumed %d of %d bytes", n2, len(enc))
		}
		if again := AppendFrame(nil, from2, to2, &msg2); !bytes.Equal(again, enc) {
			t.Fatalf("no fixed point:\n first %x\nsecond %x", enc, again)
		}
	})
}
