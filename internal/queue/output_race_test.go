package queue

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamha/internal/element"
	"streamha/internal/transport"
)

// gatedRecorder records delivered sequence numbers and blocks the first
// data send it sees until released, pinning an in-flight publish at the
// point where it has left the queue lock but not yet reached the wire.
type gatedRecorder struct {
	mu    sync.Mutex
	seqs  []uint64
	armed bool
	gate  chan struct{}
}

func (g *gatedRecorder) send(_ transport.NodeID, msg transport.Message) {
	if msg.Kind != transport.KindData {
		return
	}
	g.mu.Lock()
	for _, e := range msg.Elements {
		g.seqs = append(g.seqs, e.Seq)
	}
	block := g.armed
	g.armed = false
	g.mu.Unlock()
	if block {
		<-g.gate
	}
}

func (g *gatedRecorder) recorded() []uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint64(nil), g.seqs...)
}

// TestActivateReplayDoesNotDuplicateInFlightPublish reproduces the replay
// race deterministically: a publish is suspended inside the sender (it
// has appended the batch and released the queue lock), while another
// goroutine deactivates and reactivates the subscriber. The activation
// replay sees the batch in the buffer and — without per-subscriber send
// sequencing — retransmits it even though the suspended publish will
// still deliver it, so the subscriber receives every element twice.
func TestActivateReplayDoesNotDuplicateInFlightPublish(t *testing.T) {
	g := &gatedRecorder{armed: true, gate: make(chan struct{})}
	o := NewOutput("st", g.send)
	o.Subscribe("down", "in", true)

	published := make(chan struct{})
	go func() {
		defer close(published)
		o.Publish(elems(4))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(g.recorded()) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("publish never reached the sender")
		}
		time.Sleep(time.Millisecond)
	}

	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		o.Activate("down", false)
		o.Activate("down", true)
	}()
	// Give the reactivation replay time to run (seed) or to queue up
	// behind the suspended publish (fixed).
	time.Sleep(50 * time.Millisecond)
	close(g.gate)
	<-published
	<-toggled

	counts := make(map[uint64]int)
	for _, s := range g.recorded() {
		counts[s]++
	}
	for seq := uint64(1); seq <= 4; seq++ {
		switch counts[seq] {
		case 1:
		case 0:
			t.Errorf("seq %d never delivered", seq)
		default:
			t.Errorf("seq %d delivered %d times; replay raced an in-flight publish", seq, counts[seq])
		}
	}
}

// TestPublishActivateAckInterleaving hammers one subscriber with
// concurrent publishes, activation toggles and acknowledgments. With send
// sequencing in place, the concatenation of everything put on the wire
// must be exactly 1..N in order: each element delivered exactly once, no
// duplicates from replay racing publish, no gaps from replay skipping
// data published while the subscription was inactive. Run under -race.
func TestPublishActivateAckInterleaving(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	var lastSeen uint64
	send := func(_ transport.NodeID, msg transport.Message) {
		if msg.Kind != transport.KindData {
			return
		}
		mu.Lock()
		for _, e := range msg.Elements {
			got = append(got, e.Seq)
			lastSeen = e.Seq
		}
		mu.Unlock()
	}
	o := NewOutput("st", send)
	o.Subscribe("down", "in", true)

	const total = 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // activation toggler
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Activate("down", false)
			o.Activate("down", true)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	go func() { // acker: cumulative acks for data already on the wire
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			seq := lastSeen
			mu.Unlock()
			if seq > 0 {
				o.Ack("down", seq)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	for published := 0; published < total; {
		n := 1 + published%5
		if published+n > total {
			n = total - published
		}
		batch := make([]element.Element, n)
		for i := range batch {
			batch[i] = element.Element{ID: uint64(published + i + 1)}
		}
		o.Publish(batch)
		published += n
	}
	close(stop)
	wg.Wait()
	// If the last toggle left the subscription inactive, data published
	// meanwhile has not flowed yet; a final activation replays it.
	o.Activate("down", false)
	o.Activate("down", true)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("delivered %d elements, want exactly %d", len(got), total)
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d; stream must be 1..N exactly once in order", i, s)
		}
	}
}

// TestConcurrentPublishKeepsStampOrder pins two publishers deterministically
// in the interleaving that used to lose a batch: publisher A stamps seqs
// 1..4 and is suspended inside its first send, to subscriber X, before
// reaching subscriber Y; X then unsubscribes, and publisher B stamps 5..8
// and fans out to Y alone. Had B reached Y first, Y's send watermark would
// jump to 8 and A's batch, stamped earlier, would be skipped for Y forever.
// Each subscriber must instead see its batches in stamp order.
func TestConcurrentPublishKeepsStampOrder(t *testing.T) {
	var mu sync.Mutex
	got := make(map[transport.NodeID][]uint64)
	blocked := make(chan transport.NodeID, 1)
	gate := make(chan struct{})
	armed := true
	send := func(to transport.NodeID, msg transport.Message) {
		mu.Lock()
		for _, e := range msg.Elements {
			got[to] = append(got[to], e.Seq)
		}
		block := armed
		armed = false
		mu.Unlock()
		if block {
			blocked <- to
			<-gate
		}
	}
	o := NewOutput("st", send)
	o.Subscribe("x", "in", true)
	o.Subscribe("y", "in", true)

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		o.Publish(elems(4))
	}()
	var x, y transport.NodeID = <-blocked, "y"
	if x == "y" {
		y = "x"
	}
	o.Unsubscribe(x)

	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		o.Publish(elems(4))
	}()
	// Let B run to completion if it can overtake A (it must not), or queue
	// up behind A's hold on Y.
	select {
	case <-bDone:
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	<-aDone
	<-bDone

	mu.Lock()
	defer mu.Unlock()
	want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if fmt.Sprint(got[y]) != fmt.Sprint(want) {
		t.Fatalf("subscriber %s received %v, want %v in stamp order", y, got[y], want)
	}
}
