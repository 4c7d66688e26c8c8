// Package core implements the paper's primary contribution: the hybrid
// high-availability method (Section IV). A protected subjob runs as
// passive standby in normal conditions — sweeping checkpoints refresh a
// pre-deployed, suspended secondary copy directly in memory — and switches
// to active standby on the first missed heartbeat: the secondary's
// processing loops are resumed (a flag flip), its early-created upstream
// connections are activated, and unacknowledged data is retransmitted.
// When the primary becomes responsive again the system rolls back: the
// primary reads the freshest state from the secondary ("read state on
// rollback") and the secondary re-suspends. If the failure persists, the
// secondary is promoted to primary and a new standby is instantiated.
package core

import (
	"sync"
	"time"

	"streamha/internal/subjob"
	"streamha/internal/transport"
)

// StandbyStore applies checkpoint messages to a pre-deployed suspended
// standby copy, refreshing its state directly in memory (the paper's
// storeJobState(jobState) interface), and confirms storage back to the
// checkpoint manager. While the standby is active (during a transient
// failure) incoming checkpoints are acknowledged but not applied: the live
// state supersedes them, and trimming remains gated by the standby's own
// acknowledgments.
//
// The standby takes full snapshots and, under the approx policy, partial
// frames. An incremental (SHD2) delta is neither applied nor acknowledged:
// the lifecycle's checkpoint managers never produce one, and a delta that
// does arrive cannot be folded without a chain the standby does not keep.
type StandbyStore struct {
	mu sync.Mutex
	rt *subjob.Runtime

	applied int
	skipped int

	// Bounded-error (approx) bookkeeping. Partial frames are unchained:
	// partialSeq only dedups stale/duplicate frames, and lastRefresh is
	// the clock reading of the newest applied refresh (full or partial) —
	// the approx policy's staleness measure at failover. coldBytes is the
	// cold remainder the last applied partial did not cover.
	partialSeq     uint64
	partialApplied int
	partialSkipped int
	lastRefresh    time.Time
	coldBytes      uint64
	work           chan storeReq
	stop           chan struct{}
	done           chan struct{}
}

type storeReq struct {
	from transport.NodeID
	msg  transport.Message
}

// NewStandbyStore starts a store refreshing rt, which must be the
// suspended standby copy of its subjob.
func NewStandbyStore(rt *subjob.Runtime) *StandbyStore {
	s := &StandbyStore{
		rt:   rt,
		work: make(chan storeReq, 128),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	rt.Machine().RegisterStream(subjob.CkptStream(rt.Spec().ID), func(from transport.NodeID, msg transport.Message) {
		select {
		case s.work <- storeReq{from: from, msg: msg}:
		case <-s.stop:
		}
	})
	go s.run()
	return s
}

// Retarget points the store at a different standby runtime (after a
// fail-stop promotion instantiates a new secondary).
func (s *StandbyStore) Retarget(rt *subjob.Runtime) {
	s.mu.Lock()
	old := s.rt
	s.rt = rt
	s.mu.Unlock()
	if old.Machine() != rt.Machine() {
		old.Machine().UnregisterStream(subjob.CkptStream(old.Spec().ID))
		rt.Machine().RegisterStream(subjob.CkptStream(rt.Spec().ID), func(from transport.NodeID, msg transport.Message) {
			select {
			case s.work <- storeReq{from: from, msg: msg}:
			case <-s.stop:
			}
		})
	}
}

func (s *StandbyStore) runtime() *subjob.Runtime {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt
}

func (s *StandbyStore) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			// Shutdown fence: Close unregisters the handler before closing
			// stop, so the work queue no longer grows; applying what is
			// already queued keeps the acknowledgments the senders are
			// waiting on from silently vanishing.
			for {
				select {
				case req := <-s.work:
					s.apply(req)
				default:
					return
				}
			}
		case req := <-s.work:
			s.apply(req)
		}
	}
}

func (s *StandbyStore) apply(req storeReq) {
	if subjob.IsPartial(req.msg.State) {
		s.applyPartial(req)
		return
	}
	snap, err := subjob.DecodeSnapshot(req.msg.State)
	if err != nil {
		return
	}
	rt := s.runtime()

	applied := false
	rt.Exclusive(func() {
		if !rt.Suspended() {
			return
		}
		if !positionsCover(snap.Consumed, rt.ConsumedPositions()) {
			// The checkpoint was captured before the standby's current state
			// (a capture in flight across a rollback, which re-suspends the
			// standby at its live — newer — positions). Applying it would
			// rewind consumed positions and the output sequence while the
			// input queue's dedup floor stays put, so the next activation
			// would drop the replayed gap as duplicates and permanently
			// shift the output sequence mapping. The standby's state covers
			// everything the checkpoint does, so skip it (acknowledged).
			return
		}
		applied = rt.Restore(snap) == nil
	})
	s.mu.Lock()
	if applied {
		s.applied++
		s.lastRefresh = rt.Machine().Clock().Now()
	} else {
		// A live standby's state supersedes checkpoints and a stale one is
		// behind it; either way the snapshot is acknowledged unapplied.
		s.skipped++
	}
	s.mu.Unlock()
	s.ack(rt, req)
}

// ack confirms storage of req's checkpoint to the manager that shipped it.
func (s *StandbyStore) ack(rt *subjob.Runtime, req storeReq) {
	rt.Machine().Send(req.from, transport.Message{
		Kind:    transport.KindControl,
		Stream:  subjob.CkptAckStream(rt.Spec().ID),
		Command: "ckpt-stored",
		Seq:     req.msg.Seq,
	})
}

// applyPartial handles an unchained bounded-error frame. Partials patch
// only the hot byte ranges of the standby's state, so a frame that cannot
// be applied — the standby is active, ahead, or the patch misfits — is
// simply skipped: the cold remainder stays stale, which is exactly the
// divergence the approx policy's error budget accounts for. Every frame
// that decodes is acknowledged, letting upstream trim on the partial
// cadence (the source of approx's retention savings).
func (s *StandbyStore) applyPartial(req storeReq) {
	part, err := subjob.DecodePartial(req.msg.State)
	if err != nil {
		return
	}
	rt := s.runtime()

	s.mu.Lock()
	stale := s.partialApplied > 0 && req.msg.Seq <= s.partialSeq
	s.mu.Unlock()

	applied := false
	if !stale {
		rt.Exclusive(func() {
			if !rt.Suspended() {
				return
			}
			if !positionsCover(part.Consumed, rt.ConsumedPositions()) {
				return
			}
			applied = rt.ApplyPartial(part) == nil
		})
	}

	s.mu.Lock()
	if applied {
		s.partialApplied++
		s.partialSeq = req.msg.Seq
		s.lastRefresh = rt.Machine().Clock().Now()
		s.coldBytes = part.ColdBytes
	} else {
		s.partialSkipped++
	}
	s.mu.Unlock()
	s.ack(rt, req)
}

// PartialStats returns how many unchained partial frames refreshed the
// standby, how many were skipped, and the cold bytes the last applied
// frame did not cover.
func (s *StandbyStore) PartialStats() (applied, skipped int, coldBytes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partialApplied, s.partialSkipped, s.coldBytes
}

// LastRefresh returns when a checkpoint (full or partial) last
// refreshed the standby's in-memory state; the zero time if none has.
func (s *StandbyStore) LastRefresh() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRefresh
}

// Applied returns how many checkpoints refreshed the standby in memory.
func (s *StandbyStore) Applied() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Skipped returns how many checkpoints arrived while the standby was
// active and were acknowledged without being applied.
func (s *StandbyStore) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Close stops the store. The handler is unregistered before stop closes
// so run()'s shutdown drain observes the final backlog; the reverse
// order could accept a checkpoint into the queue after the drain and
// drop its acknowledgment.
func (s *StandbyStore) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	rt := s.runtime()
	rt.Machine().UnregisterStream(subjob.CkptStream(rt.Spec().ID))
	close(s.stop)
	<-s.done
}
