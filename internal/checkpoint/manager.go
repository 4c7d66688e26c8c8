// Package checkpoint implements the paper's checkpoint manager and the
// state stores that hold checkpoints on secondary machines. The one
// manager, Checkpointer, runs sweeping checkpointing (Section III, adopted
// from the authors' earlier work) or, as the baselines sweeping is
// compared against, the synchronous and individual variants; the
// constructor picks the trigger, which decides when a checkpoint starts
// and which part of the subjob copy it captures.
//
// The manager drives one subjob copy's pause → capture → resume
// cycle and hands the captured state to a background shipper that charges
// the modeled encode cost, serializes with the binary snapshot codec, and
// ships to a store; once the store confirms, cumulative acknowledgments go
// upstream, which trim upstream output queues. Under sweeping
// checkpointing a trim in turn triggers an immediate checkpoint of the
// trimmed subjob, so one sweep initiated at the most-downstream subjob
// propagates checkpoints all the way upstream.
//
// With Config.RebaseEvery ≥ 2 the manager checkpoints incrementally: most
// sweeps capture only the state that changed since the previous checkpoint
// (per-PE byte-range patches plus the output queue's newly published
// suffix) and every RebaseEvery-th checkpoint is a full snapshot that
// re-bases the store's folded image. Deltas chain by sequence number; a
// store that cannot fold a delta drops it without acknowledging, and the
// manager rebases as soon as its pending-ack window grows.
package checkpoint

import (
	"sync"
	"time"

	"streamha/internal/clock"
	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// Costs models the CPU cost of taking and encoding one checkpoint. The
// defaults reproduce the relative magnitudes of the paper's testbed
// (checkpointing is cheap but not free).
type Costs struct {
	// Base is charged per checkpoint regardless of size.
	Base time.Duration
	// PerUnit is charged per element-equivalent in the snapshot.
	PerUnit time.Duration
	// Disabled makes checkpoints genuinely free. A zero-valued Costs is
	// replaced by DefaultCosts, so benchmarks that want to measure the real
	// encode path without the simulated CPU charge set Disabled instead.
	Disabled bool
}

// DefaultCosts are used when a Costs field is zero.
var DefaultCosts = Costs{Base: 200 * time.Microsecond, PerUnit: 2 * time.Microsecond}

func (c Costs) orDefault() Costs {
	if c.Disabled {
		return Costs{Disabled: true}
	}
	if c.Base == 0 && c.PerUnit == 0 {
		return DefaultCosts
	}
	return c
}

// work returns the modeled CPU cost of a checkpoint of the given size.
func (c Costs) work(units int) time.Duration {
	if c.Disabled {
		return 0
	}
	return c.Base + c.PerUnit*time.Duration(units)
}

// Config configures a checkpoint manager.
type Config struct {
	// Runtime is the subjob copy being checkpointed.
	Runtime *subjob.Runtime
	// Clock is the time source.
	Clock clock.Clock
	// Interval is the checkpoint interval (the paper sweeps it from 100 ms
	// to 900 ms; experiments here run at one-tenth scale).
	Interval time.Duration
	// StoreNode is the machine holding the secondary state (a Store or a
	// hybrid standby runtime).
	StoreNode transport.NodeID
	// Costs models checkpoint CPU cost.
	Costs Costs
	// RebaseEvery enables incremental checkpointing: when ≥ 2, up to
	// RebaseEvery-1 delta checkpoints are taken between full snapshots.
	// 0 or 1 captures a full snapshot every time (the classic protocol).
	RebaseEvery int
	// SeqBase seeds the checkpoint sequence counter. A cold restart that
	// restored catalog sequence N passes N here so new checkpoints continue
	// the chain at N+1 instead of colliding with cataloged history. The
	// first checkpoint after a restart is automatically full (no delta
	// baseline survives the process), so the chain re-roots cleanly.
	SeqBase uint64
	// Partial switches the manager to bounded-error checkpointing (the
	// approx standby policy): after an initial full snapshot every sweep
	// captures an unchained partial frame — hot state ranges only, no
	// output queue, no pipes — instead of a full or chained delta.
	// Resume still forces the next capture full.
	Partial bool
}

// Manager is the interface of a checkpoint manager, whatever its trigger.
type Manager interface {
	// Start launches the manager.
	Start()
	// Stop halts it and waits for its goroutines.
	Stop()
	// CheckpointNow takes one checkpoint synchronously (outside the timer),
	// returning the time the pause lasted. Used by recovery paths and
	// benchmarks. The encode and ship happen on the background shipper.
	CheckpointNow() time.Duration
	// Pause suspends checkpointing. A live rescaling pauses the donor's
	// manager while it drives its own CaptureFull/CaptureDelta chain over
	// the same runtime — an interleaved manager capture would reset the
	// runtime's per-PE delta tracking and silently corrupt both chains.
	Pause()
	// Resume re-enables checkpointing and forces the next checkpoint full,
	// re-basing the manager's own delta chain past whatever the pause
	// interleaved.
	Resume()
	// Stats captures the manager's activity for the metrics registry.
	Stats() ManagerStats
}

// trigger selects what starts a checkpoint, and with it which part of the
// subjob copy each checkpoint captures (see run and scope).
type trigger int

const (
	triggerSweep  trigger = iota // output-queue trim, interval timer as fallback
	triggerSubjob                // subjob-wide ticker
	triggerPerPE                 // n evenly phased sub-ticks rotating over the PEs
)

// Checkpointer is the checkpoint manager. Every variant runs the same
// pause → capture → resume → ship → ack cycle; the constructor picks the
// trigger, which decides when a checkpoint starts and what it captures:
//
//   - NewSweeping: sweeping checkpointing (Section III).
//   - NewSynchronous: the timer-driven variant the paper compares against.
//   - NewIndividual: the per-PE-timer variant.
type Checkpointer struct {
	cfg     Config
	trigger trigger
	trimmed chan struct{} // sweeping: an output-queue trim is pending
	stop    chan struct{}
	done    chan struct{}
	ship    *shipper

	// capMu serializes capture → sequence assignment → shipper handoff, so
	// checkpoints enter the shipper in sequence order (the delta chain the
	// store folds depends on it).
	capMu sync.Mutex

	mu          sync.Mutex
	seq         uint64
	pending     map[uint64]map[string]uint64 // checkpoint seq -> positions to ack
	taken       int
	pauseTotal  time.Duration
	lastUnits   int
	unitsTotal  int64
	sinceFull   int
	lastOutNext uint64
	fullNext    bool
	paused      bool
	started     bool
}

var _ Manager = (*Checkpointer)(nil)

// NewSweeping creates a sweeping checkpoint manager for cfg: a checkpoint
// is taken immediately after the subjob's output queue is trimmed, with
// the interval timer as a fallback seed. Snapshots exclude the input
// queue.
func NewSweeping(cfg Config) *Checkpointer {
	return newCheckpointer(cfg, triggerSweep)
}

// NewSynchronous creates a synchronous checkpoint manager for cfg: on
// every interval all PEs of the subjob are suspended and the full state —
// including the input queue — is captured before they resume. Including
// the input queue makes messages much larger for PEs that consume more raw
// data than they derive, which is the overhead the paper's Section III
// quantifies. Upstream acknowledgments cover the input queue's accepted
// positions, since the input queue itself is part of the checkpoint.
func NewSynchronous(cfg Config) *Checkpointer {
	return newCheckpointer(cfg, triggerSubjob)
}

// NewIndividual creates an individual-timer checkpoint manager for cfg:
// every PE is checkpointed on its own timer. Each cycle captures PE i's
// logic state, its outgoing queue (pipe, or the subjob output for the last
// PE) and, for the first PE, the input queue — more, smaller, overlapping
// messages than one swept checkpoint. Only the first PE's checkpoints
// acknowledge upstream. With incremental checkpointing, per-PE messages
// become per-PE deltas between whole-subjob full rebases; each PE's change
// tracking is reset only on its own turn, so the rotation's per-PE chains
// fold correctly. CheckpointNow checkpoints the first PE.
func NewIndividual(cfg Config) *Checkpointer {
	return newCheckpointer(cfg, triggerPerPE)
}

func newCheckpointer(cfg Config, t trigger) *Checkpointer {
	cfg.Costs = cfg.Costs.orDefault()
	return &Checkpointer{
		cfg:     cfg,
		trigger: t,
		seq:     cfg.SeqBase,
		trimmed: make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ship:    newShipper(cfg),
		pending: make(map[uint64]map[string]uint64),
	}
}

// Start implements Manager. It hooks the checkpoint-ack stream (and, for
// sweeping, the runtime's trim events), then launches the trigger loop.
func (c *Checkpointer) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()

	rt := c.cfg.Runtime
	if c.trigger == triggerSweep {
		rt.Out().SetOnTrim(func() {
			select {
			case c.trimmed <- struct{}{}:
			default:
			}
		})
	}
	rt.Machine().RegisterStream(subjob.CkptAckStream(rt.Spec().ID), c.onStoreAck)
	go c.run()
}

// Stop implements Manager.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if !started {
		c.ship.stopWait()
		return
	}
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	c.ship.stopWait()
	if c.trigger == triggerSweep {
		c.cfg.Runtime.Out().SetOnTrim(nil)
	}
	c.cfg.Runtime.Machine().UnregisterStream(subjob.CkptAckStream(c.cfg.Runtime.Spec().ID))
}

func (c *Checkpointer) run() {
	defer close(c.done)
	if c.trigger == triggerSweep {
		// The interval timer is a fallback seed: a trim-triggered
		// checkpoint resets it, so the sweep cascade does not double up
		// with the timer.
		for {
			select {
			case <-c.stop:
				return
			case <-c.trimmed:
				c.CheckpointNow()
			case <-c.cfg.Clock.After(c.cfg.Interval):
				c.CheckpointNow()
			}
		}
	}
	n := 1
	if c.trigger == triggerPerPE {
		// Independent per-PE timers are modeled as a single loop firing n
		// evenly-phased sub-ticks per interval, each checkpointing one PE.
		if n = len(c.cfg.Runtime.PEs()); n == 0 {
			return
		}
	}
	tick := c.cfg.Interval / time.Duration(n)
	if tick <= 0 {
		tick = c.cfg.Interval
	}
	t := c.cfg.Clock.NewTicker(tick)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-c.stop:
			return
		case <-t.C():
			c.checkpoint(i % n)
		}
	}
}

// scope returns what a checkpoint started for PE i captures under this
// trigger: OnlyPE (-1 for every PE), IncludeInput and IncludeOutput.
func (c *Checkpointer) scope(i int) subjob.DeltaOptions {
	switch c.trigger {
	case triggerSubjob:
		return subjob.DeltaOptions{OnlyPE: -1, IncludeInput: true, IncludeOutput: true}
	case triggerPerPE:
		last := i == len(c.cfg.Runtime.PEs())-1
		return subjob.DeltaOptions{OnlyPE: i, IncludeInput: i == 0, IncludeOutput: last}
	default:
		return subjob.DeltaOptions{OnlyPE: -1, IncludeOutput: true}
	}
}

// wantDeltaLocked decides whether the next checkpoint may be incremental:
// rebasing is on, a full baseline exists, the cadence has not come due,
// and the store is keeping up (a growing pending window means deltas are
// being dropped or withheld — an unfoldable chain or a catalog gap — so
// rebase with a full).
func wantDeltaLocked(cfg *Config, sinceFull int, lastOutNext uint64, pending int) bool {
	return cfg.RebaseEvery >= 2 && lastOutNext != 0 &&
		sinceFull < cfg.RebaseEvery-1 && pending <= cfg.RebaseEvery*2
}

// CheckpointNow implements Manager. The upstream acknowledgment is
// deferred until the store confirms.
func (c *Checkpointer) CheckpointNow() time.Duration {
	return c.checkpoint(0)
}

// checkpoint pauses the copy, captures the scope of PE i (see scope),
// resumes, then numbers the checkpoint and hands it to the background
// shipper. A capture that includes the input queue acknowledges the input
// queue's accepted positions, since the queued elements are in the
// checkpoint; one that covers every PE but not the input acknowledges the
// consumed positions; a single later PE's capture acknowledges nothing.
func (c *Checkpointer) checkpoint(i int) time.Duration {
	rt := c.cfg.Runtime
	if rt.Machine().Crashed() {
		return 0
	}
	c.capMu.Lock()
	defer c.capMu.Unlock()

	c.mu.Lock()
	if c.paused {
		c.mu.Unlock()
		return 0
	}
	// The first capture in partial mode is still a full snapshot: it seeds
	// the standby's baseline image that later hot-range frames patch.
	tryPartial := c.cfg.Partial && !c.fullNext && c.lastOutNext != 0
	tryDelta := !c.cfg.Partial && !c.fullNext &&
		wantDeltaLocked(&c.cfg, c.sinceFull, c.lastOutNext, len(c.pending))
	c.fullNext = false
	sc := c.scope(i)
	sc.OutputSince = c.lastOutNext
	c.mu.Unlock()
	incremental := c.cfg.RebaseEvery >= 2

	start := c.cfg.Clock.Now()
	var snap *subjob.Snapshot
	var delta *subjob.Delta
	var part *subjob.Partial
	var accepted map[string]uint64
	rt.WithPaused(func() {
		switch {
		case tryPartial:
			part = rt.CapturePartial()
		case tryDelta:
			delta, _ = rt.CaptureDelta(sc)
		}
		if part == nil && delta == nil {
			if sc.OnlyPE >= 0 && incremental {
				// An incremental per-PE rebase must keep the whole subjob,
				// since later per-PE deltas fold onto the stored image.
				sc = subjob.DeltaOptions{OnlyPE: -1, IncludeInput: true, IncludeOutput: true}
			}
			snap = rt.CaptureFull()
			if sc.IncludeInput {
				snap.Input = rt.In().SnapshotBuf()
			}
		}
		if sc.IncludeInput {
			accepted = rt.In().AcceptedAll()
		}
	})
	paused := c.cfg.Clock.Since(start)

	var units int
	var consumed map[string]uint64
	var outNext uint64
	switch {
	case part != nil:
		units = part.ElementUnits()
		consumed = part.Consumed
		outNext = part.OutNext
	case delta != nil:
		if accepted != nil {
			delta.Consumed = accepted
		}
		units = delta.ElementUnits()
		consumed = delta.Consumed
		outNext = sc.OutputSince
		if delta.HasOutput {
			outNext = delta.Output.NextSeq
		}
	default:
		if accepted != nil {
			snap.Consumed = accepted
		}
		if sc.OnlyPE >= 0 {
			keepOnlyPE(snap, sc.OnlyPE, sc.IncludeOutput, rt)
		}
		units = snap.ElementUnits()
		consumed = snap.Consumed
		outNext = snap.Output.NextSeq
	}

	c.mu.Lock()
	c.seq++
	seq := c.seq
	switch {
	case delta != nil:
		delta.PrevSeq = seq - 1
		c.sinceFull++
	case part != nil:
		// Partials are unchained; they neither extend nor reset the delta
		// chain bookkeeping.
	default:
		c.sinceFull = 0
	}
	c.lastOutNext = outNext
	if sc.IncludeInput || sc.OnlyPE < 0 {
		c.pending[seq] = consumed
	}
	c.taken++
	c.pauseTotal += paused
	c.lastUnits = units
	c.unitsTotal += int64(units)
	c.mu.Unlock()

	c.ship.enqueue(shipJob{seq: seq, snap: snap, delta: delta, part: part, units: units})
	return paused
}

// keepOnlyPE trims a classic (non-incremental) full snapshot to PE i's
// share for the individual variant: the other PEs' states and pipes are
// zeroed, and the output queue's retained elements are dropped unless the
// capture includes the output.
func keepOnlyPE(snap *subjob.Snapshot, i int, withOutput bool, rt *subjob.Runtime) {
	for j := range snap.PEStates {
		if j != i {
			snap.PEStates[j] = nil
		}
	}
	snap.StateUnits = 0
	if i < len(rt.PEs()) {
		snap.StateUnits = rt.PEs()[i].Logic().StateSize()
	}
	for j := range snap.Pipes {
		if j != i {
			snap.Pipes[j] = nil
		}
	}
	if !withOutput {
		snap.Output.Buf = nil
	}
}

// onStoreAck releases the upstream acknowledgment for a stored checkpoint:
// the data it covers is now recoverable, so upstream may trim it.
func (c *Checkpointer) onStoreAck(_ transport.NodeID, msg transport.Message) {
	c.mu.Lock()
	positions, ok := c.pending[msg.Seq]
	if ok {
		delete(c.pending, msg.Seq)
		// Older unacked checkpoints are subsumed by this one.
		for seq := range c.pending {
			if seq < msg.Seq {
				delete(c.pending, seq)
			}
		}
	}
	c.mu.Unlock()
	if ok {
		c.cfg.Runtime.AckUpstream(positions)
	}
}

// Pause implements Manager. Taking capMu waits out any in-flight capture,
// so when Pause returns no manager capture is running or will run.
func (c *Checkpointer) Pause() {
	c.capMu.Lock()
	defer c.capMu.Unlock()
	c.mu.Lock()
	c.paused = true
	c.mu.Unlock()
}

// Resume implements Manager: checkpointing restarts with a full snapshot.
func (c *Checkpointer) Resume() {
	c.mu.Lock()
	c.paused = false
	c.fullNext = true
	c.mu.Unlock()
}

// Taken returns how many checkpoints were initiated, for tests and
// benchmarks.
func (c *Checkpointer) Taken() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken
}

// MeanPause returns the average pause duration per checkpoint.
func (c *Checkpointer) MeanPause() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.taken == 0 {
		return 0
	}
	return c.pauseTotal / time.Duration(c.taken)
}

// ManagerStats is a JSON-marshalable view of a checkpoint manager's
// activity, exported through the metrics registry. Pause, encode and ship
// are reported separately — the pause is what tuple latency pays, while
// encode and ship overlap with processing on the background shipper.
type ManagerStats struct {
	Subjob       string  `json:"subjob"`
	Taken        int     `json:"taken"`
	Pending      int     `json:"pending_acks"`
	Fulls        int     `json:"fulls_shipped"`
	Deltas       int     `json:"deltas_shipped"`
	Partials     int     `json:"partials_shipped"`
	MeanPauseMS  float64 `json:"mean_pause_ms"`
	MeanEncodeMS float64 `json:"mean_encode_ms"`
	MeanShipMS   float64 `json:"mean_ship_ms"`
	LastUnits    int     `json:"last_size_units"`
	TotalUnits   int64   `json:"total_size_units"`
	BytesFull    int64   `json:"bytes_full"`
	BytesDelta   int64   `json:"bytes_delta"`
	BytesPartial int64   `json:"bytes_partial"`
	// DeltaRatio is mean delta bytes over mean full bytes; small is good.
	DeltaRatio float64 `json:"delta_ratio"`
}

// Stats implements Manager: checkpoint counts, pending store acks,
// pause/encode/ship timings and full-vs-delta shipped volume.
func (c *Checkpointer) Stats() ManagerStats {
	c.mu.Lock()
	st := ManagerStats{
		Subjob:     c.cfg.Runtime.Spec().ID,
		Taken:      c.taken,
		Pending:    len(c.pending),
		LastUnits:  c.lastUnits,
		TotalUnits: c.unitsTotal,
	}
	if c.taken > 0 {
		st.MeanPauseMS = float64(c.pauseTotal) / float64(c.taken) / 1e6
	}
	c.mu.Unlock()
	c.ship.statsInto(&st)
	return st
}
