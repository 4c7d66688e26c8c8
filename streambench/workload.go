package main

import (
	"fmt"
	"time"

	"streamha/internal/checkpoint"
	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/element"
	"streamha/internal/ha"
	"streamha/internal/machine"
	"streamha/internal/pe"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// The paper's chain at the experiment package's DefaultParams timescale.
const (
	chainSubjobs       = 4
	pesPerSubjob       = 2
	checkpointInterval = 10 * time.Millisecond
	heartbeatInterval  = 20 * time.Millisecond
	networkLatency     = 200 * time.Microsecond
	sourceTick         = 2 * time.Millisecond
	// slotBytes is the size of one CounterLogic state slot.
	slotBytes = 8
	// failStopAfter promotes a standby when a failure outlasts it; it sits
	// well above the injected stall so stalls roll back instead.
	failStopAfter = 800 * time.Millisecond
	stallLength   = 400 * time.Millisecond
	// failoverWorkers is the schedulable pool of failover-hybrid: four
	// primaries, four standbys and two free hosts for the re-arm, spread
	// over five fault domains of two machines each.
	failoverWorkers = 10
	failoverDomains = 5
)

// workload is one benchmark input: an HA mode, a nominal rate, a state
// size, a simulated PE cost and whether failures are injected.
type workload struct {
	name     string
	mode     ha.Mode
	rate     float64
	slots    int
	peCost   time.Duration
	failover bool
}

var workloads = []workload{
	{name: "steady-hybrid", mode: ha.ModeHybrid, rate: 50000, slots: 16384},
	{name: "steady-active", mode: ha.ModeActive, rate: 100000, slots: 200},
	{name: "failover-hybrid", mode: ha.ModeHybrid, rate: 10000, slots: 200, peCost: 20 * time.Microsecond, failover: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkpoints reports whether the workload's mode ships checkpoints.
func (w workload) checkpoints() bool { return w.mode == ha.ModeHybrid }

// padUnits converts the slot count to CounterLogic's Pad, which is in
// element-encoding units, rounding up.
func (w workload) padUnits() int {
	return (w.slots*slotBytes + element.EncodedSize - 1) / element.EncodedSize
}

// deployment is one running pipeline with the benchmark's probe attached.
type deployment struct {
	w     workload
	rate  float64
	cl    *cluster.Cluster
	sch   *sched.Scheduler
	pipe  *ha.Pipeline
	probe *probe
	base  time.Time // build start
	t0    time.Time // Pipeline.Start returned
	tr    *tracer   // nil when untraced

	clusterBuilt, pipelineBuilt time.Time
	placements                  int
	stopped                     bool
}

// deploy builds the cluster and pipeline of w at rate, attaches the probe
// planned by plan and starts it. With tr set, every PE runs behind the
// tracer's timing wrapper.
func deploy(w workload, rate float64, plan probePlan, tr *tracer) (*deployment, error) {
	d := &deployment{w: w, rate: rate, tr: tr, base: time.Now()}
	plan.rate = rate
	plan.payloadAdd = chainSubjobs * pesPerSubjob
	d.probe = newProbe(plan, d.base)

	cl := cluster.New(cluster.Config{Latency: networkLatency})
	d.cl = cl
	cl.MustAddMachine("m-src")
	cl.MustAddMachine("m-sink")
	defs := make([]ha.SubjobDef, chainSubjobs)
	if w.failover {
		replicas := []*machine.Machine{
			cl.MustAddMachine("sched-a"),
			cl.MustAddMachine("sched-b"),
			cl.MustAddMachine("sched-c"),
		}
		s, err := sched.New(sched.Config{
			Clock:           cl.Clock(),
			Replicas:        replicas,
			Tick:            5 * time.Millisecond,
			ElectionTimeout: 40 * time.Millisecond,
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		s.Start()
		d.sch = s
		cl.BindScheduler(s, 1)
		for i := 0; i < failoverWorkers; i++ {
			if _, err := cl.AddMachineIn(fmt.Sprintf("w%d", i), fmt.Sprintf("rack-%d", i%failoverDomains)); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	for i := range defs {
		pes := make([]subjob.PESpec, pesPerSubjob)
		for j := range pes {
			pad, hot := w.padUnits(), w.slots
			newLogic := func() pe.Logic { return &pe.CounterLogic{Pad: pad, HotSlots: hot} }
			if tr != nil {
				newLogic = tr.wrapLogic(newLogic)
			}
			pes[j] = subjob.PESpec{Name: fmt.Sprintf("pe%d", j), NewLogic: newLogic, Cost: w.peCost}
		}
		defs[i] = ha.SubjobDef{PEs: pes, Mode: w.mode}
		if !w.failover {
			defs[i].Primary = fmt.Sprintf("p%d", i)
			defs[i].Secondary = fmt.Sprintf("s%d", i)
			cl.MustAddMachine(defs[i].Primary)
			cl.MustAddMachine(defs[i].Secondary)
		}
	}
	d.clusterBuilt = time.Now()

	hybrid := core.Options{
		HeartbeatInterval:  heartbeatInterval,
		CheckpointInterval: checkpointInterval,
	}
	if w.failover {
		hybrid.FailStopAfter = failStopAfter
	} else {
		// Steady workloads measure the program's own time: no simulated
		// checkpoint CPU charge on top of the real capture and encode.
		hybrid.CheckpointCosts = checkpoint.Costs{Disabled: true}
	}
	pipe, err := ha.NewPipeline(ha.PipelineConfig{
		Cluster:       cl,
		JobID:         "bench",
		Source:        ha.SourceDef{Machine: "m-src", Rate: rate, Tick: sourceTick},
		SinkMachine:   "m-sink",
		Subjobs:       defs,
		Hybrid:        hybrid,
		AckInterval:   checkpointInterval,
		Scheduler:     d.sch,
		RearmInterval: 20 * time.Millisecond,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.pipe = pipe
	d.pipelineBuilt = time.Now()
	if d.sch != nil {
		d.placements = d.sch.Stats().Placements
	}
	pipe.Sink().SetOnArrival(d.probe.arrive)
	if tr != nil {
		tr.attach(d)
	}
	if err := pipe.Start(); err != nil {
		d.close()
		return nil, err
	}
	d.t0 = time.Now()
	return d, nil
}

// waitFirst waits for the first delivered element and returns the set-up
// time: build start to first delivery.
func (d *deployment) waitFirst(timeout time.Duration) (time.Duration, error) {
	select {
	case <-d.probe.first:
		return d.probe.firstAt.Sub(d.base), nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("%s: no element delivered within %v of set-up", d.w.name, timeout)
	}
}

// inflight is the number of emitted elements not yet delivered.
func (d *deployment) inflight() int64 {
	return int64(d.pipe.Source().Emitted()) - int64(d.pipe.Sink().Received())
}

// drain stops the source and waits until every emitted element is
// delivered or delivery stops advancing, then audits exactly-once
// delivery.
func (d *deployment) drain(deadline time.Duration) (emitted uint64, lost, dups, wrong int64) {
	d.pipe.Source().Stop()
	emitted = d.pipe.Source().Emitted()
	end := time.Now().Add(deadline)
	last, still := int64(-1), 0
	for time.Now().Before(end) {
		n := d.probe.distinct.Load()
		if uint64(n) >= emitted {
			break
		}
		if n == last {
			still++
			if still >= 50 { // 500 ms without progress
				break
			}
		} else {
			last, still = n, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.stopPipe()
	lost, dups, wrong = d.probe.audit(emitted)
	return emitted, lost, dups, wrong
}

// stopPipe stops the pipeline once (waiting for the sink, so probe fields
// are safe to read afterwards).
func (d *deployment) stopPipe() {
	if d.pipe != nil && !d.stopped {
		d.stopped = true
		d.pipe.Stop()
	}
}

// close stops everything the deployment started.
func (d *deployment) close() {
	if d.tr != nil {
		d.tr.detach(d)
	}
	d.stopPipe()
	if d.sch != nil {
		d.sch.Stop()
	}
	d.cl.Close()
}

// groups returns the pipeline's groups.
func (d *deployment) groups() []*ha.Group { return d.pipe.AllGroups() }

// copies returns every live runtime of the pipeline.
func (d *deployment) copies() []*subjob.Runtime {
	var out []*subjob.Runtime
	for _, g := range d.groups() {
		out = append(out, g.PrimaryRuntime())
		if sec := g.SecondaryRuntime(); sec != nil {
			out = append(out, sec)
		}
	}
	return out
}
