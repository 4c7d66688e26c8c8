package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/core"
	"streamha/internal/element"
	"streamha/internal/pe"
	"streamha/internal/queue"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// span is one traced interval. Spans that share a cause point at it
// through Parent (0: none).
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_ms"`
	End    float64        `json:"end_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer is the per-layer instrumentation of a traced run. Everything is
// measured from outside the program: a pe.Logic wrapper, the transport.Mem
// observer, public stats and a 10 ms sampler. Spans and samples stay in
// memory and are written out once at the end.
type tracer struct {
	epoch time.Time

	spanMu sync.Mutex
	spans  []span

	pe peAgg

	// Transport observer counters.
	dataMsgs, dataElems, ackMsgs, ckptMsgs, ckptBytes, hbMsgs atomic.Int64
	replayed                                                  atomic.Int64

	obsMu     sync.Mutex
	streams   map[streamKey]*streamState
	watch     map[transport.NodeID]bool // standby nodes: record their data sends
	sends     []nodeSend
	captures  [][]byte
	ckptCount int

	stallTarget            atomic.Pointer[transport.NodeID]
	stallPings, stallPongs atomic.Int64

	sampler *sampler
}

// maxCaptures bounds the checkpoint payloads kept for the codec replay;
// captureEvery spreads them over the run.
const (
	maxCaptures  = 16
	captureEvery = 64
	maxSends     = 1 << 14
)

type streamKey struct {
	from   transport.NodeID
	stream string
}

// streamState tracks one producer's stream: the highest sequence sent to
// anyone and the last fresh batch, whose fan-out copies are not replays.
type streamState struct {
	hi, fa, fb uint64
}

type nodeSend struct {
	node transport.NodeID
	at   time.Time
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		streams: make(map[streamKey]*streamState),
		watch:   make(map[transport.NodeID]bool),
	}
}

func (t *tracer) msSince(at time.Time) float64 { return ms(at.Sub(t.epoch)) }

// span records a finished interval and returns its ID.
func (t *tracer) span(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.msSince(start), End: t.msSince(end), Attrs: attrs})
	return id
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.spanMu.Lock()
	doc := map[string]any{"meta": meta, "spans": t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	t.spanMu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- pe: timing wrapper ---------------------------------------------------

// processSample is the 1-in-N sampling of Process timings.
const processSample = 8

type peAgg struct {
	procNS, procN, snapNS, snapN, restNS, restN atomic.Int64
}

type peCounts struct{ procNS, procN, snapNS, snapN, restNS, restN int64 }

func (a *peAgg) read() peCounts {
	return peCounts{a.procNS.Load(), a.procN.Load(), a.snapNS.Load(), a.snapN.Load(), a.restNS.Load(), a.restN.Load()}
}

// timedLogic times a Logic's calls. Process is sampled; state capture and
// restore are timed on every call.
type timedLogic struct {
	inner pe.Logic
	agg   *peAgg
	n     uint64 // Process calls; touched only by the PE goroutine
}

func (l *timedLogic) Process(e element.Element, emit func(element.Element)) {
	l.n++
	if l.n%processSample != 0 {
		l.inner.Process(e, emit)
		return
	}
	start := time.Now()
	l.inner.Process(e, emit)
	l.agg.procNS.Add(int64(time.Since(start)))
	l.agg.procN.Add(1)
}

func (l *timedLogic) Snapshot() []byte {
	start := time.Now()
	b := l.inner.Snapshot()
	l.agg.snapNS.Add(int64(time.Since(start)))
	l.agg.snapN.Add(1)
	return b
}

func (l *timedLogic) Restore(state []byte) error {
	start := time.Now()
	err := l.inner.Restore(state)
	l.agg.restNS.Add(int64(time.Since(start)))
	l.agg.restN.Add(1)
	return err
}

func (l *timedLogic) StateSize() int { return l.inner.StateSize() }

// timedPartialLogic is timedLogic for a pe.PartialLogic. The subjob
// runtime type-asserts DeltaLogic and PartialLogic, so the wrapper must
// keep both or it would change which checkpoint path runs.
type timedPartialLogic struct {
	timedLogic
	pl pe.PartialLogic
}

func (l *timedPartialLogic) DeltaSnapshot() ([]byte, bool) {
	start := time.Now()
	b, ok := l.pl.DeltaSnapshot()
	l.agg.snapNS.Add(int64(time.Since(start)))
	l.agg.snapN.Add(1)
	return b, ok
}

func (l *timedPartialLogic) ApplyDelta(patch []byte) error {
	start := time.Now()
	err := l.pl.ApplyDelta(patch)
	l.agg.restNS.Add(int64(time.Since(start)))
	l.agg.restN.Add(1)
	return err
}

func (l *timedPartialLogic) ResetDelta()     { l.pl.ResetDelta() }
func (l *timedPartialLogic) StateBytes() int { return l.pl.StateBytes() }

var _ pe.PartialLogic = (*timedPartialLogic)(nil)

// wrapLogic returns a factory producing timed wrappers of newLogic's
// logics, keeping every optional interface the inner logic implements.
func (t *tracer) wrapLogic(newLogic func() pe.Logic) func() pe.Logic {
	return func() pe.Logic {
		inner := newLogic()
		base := timedLogic{inner: inner, agg: &t.pe}
		if pl, ok := inner.(pe.PartialLogic); ok {
			return &timedPartialLogic{timedLogic: base, pl: pl}
		}
		if _, ok := inner.(pe.DeltaLogic); ok {
			panic("streambench: no timing wrapper for a DeltaLogic without PartialLogic")
		}
		return &base
	}
}

// --- transport: observer --------------------------------------------------

// attach installs the observer on d's network. Node names repeat across
// deployments, so the per-stream and per-node records start afresh.
func (t *tracer) attach(d *deployment) {
	t.obsMu.Lock()
	t.streams = make(map[streamKey]*streamState)
	t.watch = make(map[transport.NodeID]bool)
	t.sends = nil
	for _, g := range d.groups() {
		if m := g.HA.StandbyMachine(); m != nil {
			t.watch[m.ID()] = true
		}
	}
	t.obsMu.Unlock()
	d.cl.Network().SetObserver(t.observe)
}

func (t *tracer) detach(d *deployment) {
	d.cl.Network().SetObserver(nil)
	t.stopSampler()
}

func (t *tracer) observe(from, to transport.NodeID, msg *transport.Message) {
	switch msg.Kind {
	case transport.KindData:
		t.dataMsgs.Add(1)
		t.dataElems.Add(int64(len(msg.Elements)))
		t.noteData(from, msg)
	case transport.KindAck:
		t.ackMsgs.Add(1)
	case transport.KindCheckpoint:
		t.ckptMsgs.Add(1)
		t.ckptBytes.Add(int64(len(msg.State)))
		t.capture(msg.State)
	case transport.KindPing:
		t.hbMsgs.Add(1)
		if tg := t.stallTarget.Load(); tg != nil && *tg == to {
			t.stallPings.Add(1)
		}
	case transport.KindPong:
		t.hbMsgs.Add(1)
		if tg := t.stallTarget.Load(); tg != nil && *tg == from {
			t.stallPongs.Add(1)
		}
	}
}

// noteData counts replayed elements — sequence numbers a producer already
// sent to someone, other than the fan-out copies of its newest batch —
// and records data sends from standby nodes.
func (t *tracer) noteData(from transport.NodeID, msg *transport.Message) {
	if len(msg.Elements) == 0 {
		return
	}
	a, b := msg.Elements[0].Seq, msg.Elements[len(msg.Elements)-1].Seq
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	k := streamKey{from, msg.Stream}
	st := t.streams[k]
	if st == nil {
		st = &streamState{}
		t.streams[k] = st
	}
	if a != st.fa || b != st.fb {
		if a <= st.hi {
			var n int64
			for _, e := range msg.Elements {
				if e.Seq <= st.hi {
					n++
				}
			}
			t.replayed.Add(n)
		}
		if b > st.hi {
			st.hi, st.fa, st.fb = b, a, b
		}
	}
	if t.watch[from] && len(t.sends) < maxSends {
		t.sends = append(t.sends, nodeSend{node: from, at: time.Now()})
	}
}

// capture keeps a copy of every captureEvery-th checkpoint payload.
func (t *tracer) capture(state []byte) {
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	t.ckptCount++
	if t.ckptCount%captureEvery == 1 && len(t.captures) < maxCaptures {
		t.captures = append(t.captures, append([]byte(nil), state...))
	}
}

// firstSendAfter returns the first data send from node strictly after at.
func (t *tracer) firstSendAfter(node transport.NodeID, at time.Time) (time.Time, bool) {
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	for _, s := range t.sends {
		if s.node == node && s.at.After(at) {
			return s.at, true
		}
	}
	return time.Time{}, false
}

// stallBegin/stallEnd count the heartbeats a stalled node misses.
func (t *tracer) stallBegin(node transport.NodeID) (pings, pongs int64) {
	t.stallTarget.Store(&node)
	return t.stallPings.Load(), t.stallPongs.Load()
}

func (t *tracer) stallEnd(pings0, pongs0 int64) int64 {
	t.stallTarget.Store(nil)
	return (t.stallPings.Load() - pings0) - (t.stallPongs.Load() - pongs0)
}

// --- subjob: codec replay -------------------------------------------------

// codecReplay decodes and re-encodes every captured checkpoint payload
// through subjob's public codec, reporting mean decode and encode times
// (µs, best of three per payload) and the mean payload size.
func (t *tracer) codecReplay() (decodeUS, encodeUS, bytes float64, n int) {
	t.obsMu.Lock()
	caps := t.captures
	t.obsMu.Unlock()
	var dec, enc, size []float64
	var buf []byte
	for _, c := range caps {
		bestD, bestE := time.Duration(1<<62), time.Duration(1<<62)
		ok := true
		for r := 0; r < 3 && ok; r++ {
			start := time.Now()
			snap, delta, err := subjob.DecodeCheckpoint(c)
			d := time.Since(start)
			if err != nil {
				ok = false
				break
			}
			start = time.Now()
			if snap != nil {
				buf = snap.AppendTo(buf[:0])
			} else {
				buf = delta.AppendTo(buf[:0])
			}
			e := time.Since(start)
			bestD, bestE = min(bestD, d), min(bestE, e)
		}
		if !ok {
			continue
		}
		dec = append(dec, float64(bestD)/1e3)
		enc = append(enc, float64(bestE)/1e3)
		size = append(size, float64(len(c)))
	}
	return mean(dec), mean(enc), mean(size), len(dec)
}

// --- sampler --------------------------------------------------------------

// sampler polls queue depths and checkpoint backpressure every 10 ms.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	inflightMax, pendingMax, goroutinesMax int64
	backlog, retained                      []float64
}

func (t *tracer) startSampler(d *deployment) {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	t.sampler = s
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.inflightMax = max(s.inflightMax, d.inflight())
			s.goroutinesMax = max(s.goroutinesMax, int64(runtime.NumGoroutine()))
			backlog := d.pipe.Sink().In().Len()
			retained := d.pipe.Source().Out().Stats().Retained
			for _, rt := range d.copies() {
				backlog += rt.Backlog()
				retained += rt.Out().Stats().Retained
			}
			s.backlog = append(s.backlog, float64(backlog))
			s.retained = append(s.retained, float64(retained))
			var pending int64
			for _, g := range d.groups() {
				if cm := g.HA.Checkpoint(); cm != nil {
					pending += int64(cm.Stats().Pending)
				}
			}
			s.pendingMax = max(s.pendingMax, pending)
		}
	}()
}

func (t *tracer) stopSampler() *sampler {
	s := t.sampler
	if s == nil {
		return nil
	}
	t.sampler = nil
	close(s.stop)
	<-s.done
	return s
}

// --- window snapshots -----------------------------------------------------

// layerSnap is every cumulative counter the per-layer metrics difference
// over a measured window.
type layerSnap struct {
	dataMsgs, dataElems, ackMsgs, ckptMsgs, ckptBytes, hbMsgs, replayed int64
	pe                                                                  peCounts
	ckpt                                                                map[checkpoint.Manager]checkpoint.ManagerStats
	stores                                                              map[*core.StandbyStore][2]int
	inputs                                                              map[*queue.Input][2]int
}

// snapshot reads the public stats of d's layers and, with t set, the
// tracer's own counters.
func (t *tracer) snapshot(d *deployment) layerSnap {
	s := layerSnap{
		ckpt:   make(map[checkpoint.Manager]checkpoint.ManagerStats),
		stores: make(map[*core.StandbyStore][2]int),
		inputs: make(map[*queue.Input][2]int),
	}
	if t != nil {
		s.dataMsgs = t.dataMsgs.Load()
		s.dataElems = t.dataElems.Load()
		s.ackMsgs = t.ackMsgs.Load()
		s.ckptMsgs = t.ckptMsgs.Load()
		s.ckptBytes = t.ckptBytes.Load()
		s.hbMsgs = t.hbMsgs.Load()
		s.replayed = t.replayed.Load()
		s.pe = t.pe.read()
	}
	for _, g := range d.groups() {
		if cm := g.HA.Checkpoint(); cm != nil {
			s.ckpt[cm] = cm.Stats()
		}
		if ss := g.HA.StandbyStoreRef(); ss != nil {
			s.stores[ss] = [2]int{ss.Applied(), ss.Skipped()}
		}
	}
	ins := []*queue.Input{d.pipe.Sink().In()}
	for _, rt := range d.copies() {
		ins = append(ins, rt.In())
	}
	for _, in := range ins {
		dups, gaps := in.Drops()
		s.inputs[in] = [2]int{dups, gaps}
	}
	return s
}

// ckptWindow is the checkpoint-manager work done inside a window.
type ckptWindow struct {
	taken, shipped, fulls     int
	pauseMS, encodeMS, shipMS float64
	bytesFull                 int64
	applied, skipped          int
}

func ckptDiff(a, b layerSnap) ckptWindow {
	var w ckptWindow
	for cm, end := range b.ckpt {
		start := a.ckpt[cm] // zero for a manager created inside the window
		shippedEnd := end.Fulls + end.Deltas + end.Partials
		shippedStart := start.Fulls + start.Deltas + start.Partials
		w.taken += end.Taken - start.Taken
		w.shipped += shippedEnd - shippedStart
		w.fulls += end.Fulls - start.Fulls
		w.pauseMS += end.MeanPauseMS*float64(end.Taken) - start.MeanPauseMS*float64(start.Taken)
		w.encodeMS += end.MeanEncodeMS*float64(shippedEnd) - start.MeanEncodeMS*float64(shippedStart)
		w.shipMS += end.MeanShipMS*float64(shippedEnd) - start.MeanShipMS*float64(shippedStart)
		w.bytesFull += end.BytesFull - start.BytesFull
	}
	for ss, end := range b.stores {
		start := a.stores[ss]
		w.applied += end[0] - start[0]
		w.skipped += end[1] - start[1]
	}
	return w
}

func inputDiff(a, b layerSnap) (dups, gaps int) {
	for in, end := range b.inputs {
		start := a.inputs[in]
		dups += end[0] - start[0]
		gaps += end[1] - start[1]
	}
	return dups, gaps
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
