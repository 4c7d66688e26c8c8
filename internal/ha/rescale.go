package ha

import (
	"fmt"
	"time"

	"streamha/internal/core"
	"streamha/internal/subjob"
)

// RescalePlacement places the instance a ScaleOut adds: the machine for
// its primary copy and, per the stage's HA mode, its standby and spare.
type RescalePlacement struct {
	Primary   string
	Secondary string
	Spare     string
}

// RescaleOptions tunes a ScaleOut.
type RescaleOptions struct {
	// SyncRounds is the number of delta rounds shipped after the full
	// snapshot while the donor keeps serving (default 2). More rounds
	// shrink the final delta and so the cutover pause.
	SyncRounds int
	// RoundGap is how long the donor keeps processing between delta rounds
	// (default 20 ms).
	RoundGap time.Duration
	// DrainTimeout bounds the wait for the donor's backlog to empty during
	// cutover (default 5 s).
	DrainTimeout time.Duration
}

func (o RescaleOptions) withDefaults() RescaleOptions {
	if o.SyncRounds <= 0 {
		o.SyncRounds = 2
	}
	if o.RoundGap <= 0 {
		o.RoundGap = 20 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	return o
}

// RescaleReport describes one completed ScaleOut.
type RescaleReport struct {
	// Subjob names the grown subjob.
	Subjob      string
	NewInstance int
	// Donor is the partition-instance index that gave up partitions.
	Donor int
	// Moved lists the logical partitions reassigned to the new instance.
	Moved []int
	// FullBytes and DeltaBytes are the encoded sizes shipped during state
	// sync (the full snapshot round, then every delta round including the
	// final cutover delta).
	FullBytes  int
	DeltaBytes int
	// Rounds counts delta rounds shipped, including the final one.
	Rounds int
	// SyncDuration spans the whole ScaleOut; CutoverPause is the window in
	// which the donor was actually paused (the only service interruption).
	SyncDuration time.Duration
	CutoverPause time.Duration
}

// ScaleOut grows the keyed-parallel subjob id from n to n+1 instances
// while the job keeps serving. Only a subjob whose consumers are all sinks
// can grow live — an instance feeding another subjob would need every
// downstream copy's input re-specced, which is out of scope — and it must
// not run active standby (the twin processes the same feed concurrently,
// so pausing just the primary for state sync would fork the pair). The
// new instance is placed like every build-time instance: named machines
// must exist, empty names go to the Scheduler, and its lifecycle re-arms
// through it.
//
// Protocol: the new instance is deployed suspended with early (inactive)
// upstream connections and an active sink subscription for its own output
// stream. The donor — the instance owning the most partitions — then ships
// a full snapshot and a chain of delta checkpoints while it keeps serving;
// its checkpoint manager is paused so the migration owns the delta
// baseline. Cutover deactivates the donor's feed, drains its backlog,
// ships the final (empty-backlog) delta under pause, flips the shared
// routing table, purges moved elements from the donor's buffer, resumes
// the new instance and reactivates both feeds. Upstream replay plus the
// adopted consumed positions make the handoff exactly-once: the new
// instance's input dedups everything the donor already consumed, and its
// partition guard drops everything the donor still owns. The cutover is
// recorded on the donor's lifecycle as a migration event.
func (t *Topology) ScaleOut(id string, pl RescalePlacement, opt RescaleOptions) (*RescaleReport, error) {
	opt = opt.withDefaults()
	clk := t.cfg.Cluster.Clock()
	started := clk.Now()

	nd := t.nodes[id]
	if nd == nil {
		return nil, fmt.Errorf("ha: ScaleOut: unknown subjob %q", id)
	}
	if !nd.def.partitioned() {
		return nil, fmt.Errorf("ha: ScaleOut: subjob %s is not keyed-parallel", id)
	}
	if len(nd.consumers) > 0 {
		return nil, fmt.Errorf("ha: ScaleOut: subjob %s feeds subjob %s; only a subjob read by sinks alone can grow live", id, nd.consumers[0])
	}
	if nd.def.Mode == ModeActive {
		return nil, fmt.Errorf("ha: ScaleOut: active-standby subjobs cannot rescale live")
	}
	split := nd.split

	instances := t.Instances(id)
	n := len(instances)
	if split.Instances() != n {
		return nil, fmt.Errorf("ha: ScaleOut: routing table has %d instances, subjob has %d", split.Instances(), n)
	}

	// Donor: the instance owning the most partitions; it gives up half.
	donorIdx, donorOwned := 0, split.OwnedBy(0)
	for k := 1; k < n; k++ {
		if owned := split.OwnedBy(k); len(owned) > len(donorOwned) {
			donorIdx, donorOwned = k, owned
		}
	}
	if len(donorOwned) < 2 {
		return nil, fmt.Errorf("ha: ScaleOut: donor instance %d owns %d partitions; nothing to move", donorIdx, len(donorOwned))
	}
	moved := append([]int(nil), donorOwned[:len(donorOwned)/2]...)
	donorGroup := instances[donorIdx]
	donor := donorGroup.HA.PrimaryRuntime()

	// Deploy the new instance suspended, with its partition guard installed
	// before any element can reach it. Its output stream is new: each sink
	// learns it first, then the instance subscribes the sink actively (the
	// output queue is empty, so the active subscription carries nothing yet).
	g, err := t.buildGroup(nd, n, pl, true)
	if err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: %w", err)
	}
	rt := g.HA.PrimaryRuntime()
	for _, name := range nd.sinks {
		sink := t.sinks[name]
		sink.AddInput(g.Spec.OutStream, g.Spec.ID)
		tgt := sinkTarget(sink, g.Spec.OutStream)
		rt.Out().SubscribePart(tgt.Node, tgt.Stream, tgt.Active, tgt.Part)
	}

	// Early inactive upstream connections, filtered to the new instance's
	// (currently empty) partition set.
	ups := t.producerOutputs(nd.def.Inputs)
	for _, up := range ups {
		up.SubscribePart(rt.Node(), subjob.DataStream(g.Spec.ID, up.StreamID), false, n)
	}

	// The migration owns the donor's delta baseline: an interleaved manager
	// capture would reset per-PE change tracking mid-chain.
	if cm := donorGroup.HA.Checkpoint(); cm != nil {
		cm.Pause()
		defer cm.Resume()
	}

	rep := &RescaleReport{Subjob: id, NewInstance: n, Donor: donorIdx, Moved: moved}

	// Round 1: full snapshot, shipped encoded, while the donor serves on.
	var snapBytes []byte
	donor.WithPaused(func() {
		s := donor.CaptureFull()
		snapBytes, err = s.Encode()
	})
	if err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: encode snapshot: %w", err)
	}
	snap, err := subjob.DecodeSnapshot(snapBytes)
	if err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: decode snapshot: %w", err)
	}
	if err := rt.AdoptSnapshot(snap); err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: adopt snapshot: %w", err)
	}
	rep.FullBytes = len(snapBytes)

	shipDelta := func() error {
		var deltaBytes []byte
		ok := true
		donor.WithPaused(func() {
			d, dok := donor.CaptureDelta(subjob.DeltaOptions{OnlyPE: -1})
			if !dok {
				ok = false
				return
			}
			deltaBytes, err = d.Encode()
		})
		if !ok {
			return fmt.Errorf("ha: ScaleOut: donor cannot express delta; state was restored mid-rescale")
		}
		if err != nil {
			return fmt.Errorf("ha: ScaleOut: encode delta: %w", err)
		}
		d, err := subjob.DecodeDelta(deltaBytes)
		if err != nil {
			return fmt.Errorf("ha: ScaleOut: decode delta: %w", err)
		}
		if err := rt.AdoptDelta(d); err != nil {
			return fmt.Errorf("ha: ScaleOut: adopt delta: %w", err)
		}
		rep.DeltaBytes += len(deltaBytes)
		rep.Rounds++
		return nil
	}

	// Chained delta rounds: the donor keeps processing between captures, so
	// each round ships only what changed and the final gap stays small.
	for i := 0; i < opt.SyncRounds; i++ {
		clk.Sleep(opt.RoundGap)
		if err := shipDelta(); err != nil {
			return nil, err
		}
	}

	// Cutover. Stop the donor's feed and let it finish what it holds, so
	// the final delta carries state only — no in-flight elements exist whose
	// outputs could be emitted twice.
	cutStart := clk.Now()
	for _, up := range ups {
		up.Activate(donor.Node(), false)
	}
	deadline := clk.Now().Add(opt.DrainTimeout)
	var cutErr error
	for settled := false; !settled; {
		for donor.Backlog() > 0 {
			if clk.Now().After(deadline) {
				for _, up := range ups {
					up.Activate(donor.Node(), true)
				}
				return nil, fmt.Errorf("ha: ScaleOut: donor backlog did not drain within %v", opt.DrainTimeout)
			}
			clk.Sleep(500 * time.Microsecond)
		}
		donor.WithPaused(func() {
			// Re-check under the pause: a batch in flight when the backlog
			// last read zero may have landed since, and a PE finishing it
			// while parking would leave its outputs in a pipe. A delta
			// shipped with a non-empty pipe is processed by both sides —
			// the adopter after Resume and the donor after unpause — so
			// retry the drain until the quiescent backlog really is zero.
			if donor.Backlog() > 0 {
				return
			}
			settled = true
			d, dok := donor.CaptureDelta(subjob.DeltaOptions{OnlyPE: -1})
			if !dok {
				cutErr = fmt.Errorf("ha: ScaleOut: donor cannot express final delta")
				return
			}
			var deltaBytes []byte
			deltaBytes, cutErr = d.Encode()
			if cutErr != nil {
				return
			}
			var dd *subjob.Delta
			dd, cutErr = subjob.DecodeDelta(deltaBytes)
			if cutErr != nil {
				return
			}
			if cutErr = rt.AdoptDelta(dd); cutErr != nil {
				return
			}
			rep.DeltaBytes += len(deltaBytes)
			rep.Rounds++
			// Flip ownership while both sides are quiescent, then purge moved
			// elements the donor had buffered: from here on the guard routes
			// them to the new instance via upstream replay.
			if cutErr = split.Move(moved, n); cutErr != nil {
				return
			}
			donor.In().Repartition()
		})
		if cutErr != nil {
			for _, up := range ups {
				up.Activate(donor.Node(), true)
			}
			return nil, cutErr
		}
	}

	// Serve: resume the new instance, then open both feeds. Activation
	// replays everything unacknowledged through each subscription's filter,
	// and the adopted consumed positions dedup what the donor already
	// processed.
	rt.Resume()
	for _, up := range ups {
		up.Activate(rt.Node(), true)
		up.Activate(donor.Node(), true)
	}
	cutEnd := clk.Now()
	rep.CutoverPause = cutEnd.Sub(cutStart)

	// Protect the new instance: a full HA group, same mode as its subjob.
	t.mu.Lock()
	nd.groups = append(nd.groups, g)
	reg := t.reg
	t.mu.Unlock()
	if err := g.HA.Start(); err != nil {
		return nil, fmt.Errorf("ha: ScaleOut: start lifecycle: %w", err)
	}
	if reg != nil {
		registerGroupMetrics(reg, g)
	}

	donorGroup.HA.NoteMigration(core.MigrationEvent{DetectedAt: cutStart, ReadyAt: cutEnd})
	rep.SyncDuration = clk.Now().Sub(started)
	return rep, nil
}
