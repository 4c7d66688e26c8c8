package ha

import (
	"fmt"
	"sync"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/machine"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/sched"
	"streamha/internal/subjob"
)

// The paper's evaluation uses chain jobs and names tree-shaped topologies
// as future work. Topology deploys arbitrary DAGs: any subjob may consume
// the outputs of several producers (fan-in) and feed several consumers
// (fan-out), each with its own HA mode and optional keyed parallelism. The
// underlying queue protocol already supports both — an output queue trims
// only when every consumer acknowledged, and an input queue merges and
// deduplicates per upstream stream — so the builder's job is wiring and
// lifecycle construction. A chain is the special case NewPipeline builds.

// SubjobDef declares one subjob node of a job and selects its HA mode.
type SubjobDef struct {
	// ID names the subjob within the job; NewPipeline names an unnamed
	// stage "sj<i>".
	ID string
	// Inputs lists the producers feeding it: subjob IDs or source names.
	// NewPipeline sets it to the previous stage.
	Inputs []string
	// PEs is the subjob's pipeline.
	PEs []subjob.PESpec
	// Mode is the HA scheme.
	Mode Mode
	// Primary is the machine hosting the primary copy. Empty delegates the
	// choice to the job's Scheduler (required then).
	Primary string
	// Secondary is the machine hosting the standby side (AS second copy,
	// PS store, hybrid standby). Required unless Mode is ModeNone or a
	// Scheduler resolves it — a scheduled standby never lands on the
	// primary's machine or anywhere in its fault domain.
	Secondary string
	// Spare optionally hosts the hybrid's replacement standby after a
	// fail-stop promotion. A non-empty name must exist in the cluster.
	// With a Scheduler, leaving it empty lets promotion ask for a host on
	// demand instead of pinning one up front.
	Spare string
	// BatchSize overrides the per-PE batch size.
	BatchSize int

	// Parallelism enables keyed parallelism: n ≥ 1 deploys n partition
	// instances of the subjob, each a full HA group (own lifecycle,
	// standby and checkpoints), with every producer of its inputs fanning
	// elements out by a stable hash of Element.Key over the subjob's
	// partition table. 0 selects the single unpartitioned instance (no
	// routing table, no input guard).
	Parallelism int
	// Partitions is the logical partition count of the subjob's routing
	// table (default queue.DefaultPartitions); meaningful only with
	// Parallelism ≥ 1. Rescaling moves logical partitions between
	// instances, so Partitions bounds the granularity of rebalancing.
	Partitions int
	// Primaries, Secondaries and Spares place instance k on
	// Primaries[k] etc.; instances beyond the slice fall back to
	// Primary/Secondary/Spare. Meaningful only with Parallelism ≥ 1.
	Primaries   []string
	Secondaries []string
	Spares      []string
}

// partitioned reports whether the subjob uses the keyed-parallel path.
func (d SubjobDef) partitioned() bool { return d.Parallelism >= 1 }

// instances is the subjob's initial instance count.
func (d SubjobDef) instances() int {
	if d.Parallelism >= 1 {
		return d.Parallelism
	}
	return 1
}

func pick(list []string, k int, fallback string) string {
	if k < len(list) && list[k] != "" {
		return list[k]
	}
	return fallback
}

func (d SubjobDef) primaryOf(k int) string   { return pick(d.Primaries, k, d.Primary) }
func (d SubjobDef) secondaryOf(k int) string { return pick(d.Secondaries, k, d.Secondary) }
func (d SubjobDef) spareOf(k int) string     { return pick(d.Spares, k, d.Spare) }

// SourceDef places and shapes one source node of a job.
type SourceDef struct {
	// Name identifies the source within the job (e.g. "ticks");
	// NewPipeline names an unnamed source "src".
	Name string
	// Machine hosts it.
	Machine string
	// Rate is the emission rate in elements per second.
	Rate float64
	// Tick is the batching period (default 5 ms).
	Tick time.Duration
	// BurstOn, BurstOff and BurstFactor shape on/off bursts around the
	// same average rate (see cluster.SourceConfig).
	BurstOn, BurstOff time.Duration
	BurstFactor       float64
}

// TopologySink declares one sink node of a DAG job.
type TopologySink struct {
	// Name identifies the sink within the job.
	Name string
	// Machine hosts it.
	Machine string
	// Inputs lists the subjob IDs it consumes.
	Inputs []string
	// TrackIDs retains per-ID delivery counts for verification.
	TrackIDs bool
}

// TopologyConfig deploys a DAG job.
type TopologyConfig struct {
	// Cluster supplies machines, network and clock.
	Cluster *cluster.Cluster
	// JobID names the job; stream and subjob names derive from it.
	JobID   string
	Sources []SourceDef
	Subjobs []SubjobDef
	Sinks   []TopologySink
	// Hybrid tunes hybrid-mode subjobs (intervals, costs, ablations); it
	// also tunes approx-mode subjobs, which share the hybrid machinery.
	Hybrid core.Options
	// PS tunes passive-standby subjobs.
	PS PSOptions
	// Approx is the error budget of approx-mode subjobs: how many
	// in-flight elements a budgeted failover may skip instead of
	// replaying, and how stale the promoted standby may be. The zero
	// budget degenerates approx to exact hybrid behavior.
	Approx core.ErrorBudget
	// AckInterval drives the ackers of NONE/AS copies and the sinks
	// (default: the hybrid checkpoint interval, seeding the sweep).
	AckInterval time.Duration
	// Scheduler, when set, resolves placement requests (empty Primary /
	// Secondary / Spare fields) against the cluster's schedulable pool and
	// keeps every lifecycle re-armable: after a promotion or standby-machine
	// death the lifecycle asks it for a fresh host instead of settling
	// unprotected.
	Scheduler *sched.Scheduler
	// RearmInterval is the lifecycles' re-arm health-check period
	// (default 100ms); meaningful only with a Scheduler.
	RearmInterval time.Duration
}

// Group is one deployed subjob instance with its HA lifecycle. An
// unpartitioned subjob has exactly one group; a keyed-parallel one has one
// group per partition instance.
type Group struct {
	Spec subjob.Spec
	Mode Mode

	// Part is the group's partition-instance index within its subjob, or
	// -1 for an unpartitioned subjob.
	Part int

	// HA is the subjob's lifecycle engine: one state machine regardless of
	// mode, with the mode plugged in as its StandbyPolicy.
	HA *core.Lifecycle
}

// LiveOutputs returns the output queues of every live copy of the group.
func (g *Group) LiveOutputs() []*queue.Output {
	outs := []*queue.Output{g.HA.PrimaryRuntime().Out()}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		outs = append(outs, sec.Out())
	}
	return outs
}

// ConsumerTargets returns every copy of the group as a consumer of its
// input stream, with the flag saying whether data should flow to it now:
// always to the primary, and to a standby copy only while it is running
// (an AS twin, or a hybrid standby that is currently switched over). A
// suspended standby's subscription stays inactive — that is the early
// connection. Part carries the group's partition-instance index so keyed
// producers filter the subscription to the keys the group serves.
func (g *Group) ConsumerTargets(logical string) []core.Target {
	stream := subjob.DataStream(g.Spec.ID, logical)
	out := []core.Target{{Node: g.HA.PrimaryRuntime().Node(), Stream: stream, Active: true, Part: g.Part}}
	if sec := g.HA.SecondaryRuntime(); sec != nil {
		out = append(out, core.Target{Node: sec.Node(), Stream: stream, Active: !sec.Suspended(), Part: g.Part})
	}
	return out
}

// PrimaryRuntime returns the group's current primary copy.
func (g *Group) PrimaryRuntime() *subjob.Runtime { return g.HA.PrimaryRuntime() }

// SecondaryRuntime returns the group's standby copy, or nil (AS returns
// its second copy; PS keeps state in a store, not a copy).
func (g *Group) SecondaryRuntime() *subjob.Runtime { return g.HA.SecondaryRuntime() }

// node is one subjob of the graph with its deployed instances.
type node struct {
	def SubjobDef
	// split is the subjob's input routing table (keyed subjobs only).
	// Every producer of its inputs routes through it and every HA copy of
	// every instance guards with it, so replicas agree on ownership even
	// while a rescale is moving partitions.
	split *queue.Partitioner
	// down is the routing table of the keyed consumer this subjob feeds,
	// or nil.
	down *queue.Partitioner
	// consumers and sinks name the subjobs and sinks reading its output.
	consumers []string
	sinks     []string
	// groups holds the instances in partition order; guarded by
	// Topology.mu, since ScaleOut appends to it.
	groups []*Group
}

// instance names instance k: "<id>" for an unpartitioned subjob,
// "<id>.p<k>" for a keyed-parallel one.
func (n *node) instance(k int) string {
	if n.def.partitioned() {
		return fmt.Sprintf("%s.p%d", n.def.ID, k)
	}
	return n.def.ID
}

// part is instance k's partition-instance index, or -1 if unpartitioned.
func (n *node) part(k int) int {
	if n.def.partitioned() {
		return k
	}
	return -1
}

// Topology is a deployed DAG job.
type Topology struct {
	cfg     TopologyConfig
	sources map[string]*cluster.Source
	sinks   map[string]*cluster.Sink
	nodes   map[string]*node
	order   []string // subjobs in topological order

	// placer adapts cfg.Scheduler for the lifecycles; nil without one.
	placer core.Placer

	// mu guards every node's groups and reg, which live rescaling mutates.
	mu  sync.Mutex
	reg *metrics.Registry
}

// NewTopology builds and wires the DAG; call Start to begin processing.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	if cfg.AckInterval <= 0 {
		cfg.AckInterval = cfg.Hybrid.CheckpointInterval
		if cfg.AckInterval <= 0 {
			cfg.AckInterval = 10 * time.Millisecond // core.Options' checkpoint default
		}
	}
	t := &Topology{
		cfg:     cfg,
		sources: make(map[string]*cluster.Source),
		sinks:   make(map[string]*cluster.Sink),
		nodes:   make(map[string]*node),
	}
	cl := cfg.Cluster
	if cfg.Scheduler != nil {
		t.placer = newSchedPlacer(cl, cfg.Scheduler)
	}

	// Every source, subjob and sink name is unique across the job: stream
	// names, owners and the sink map all key on it.
	names := map[string]bool{}
	claim := func(name string) error {
		if names[name] {
			return fmt.Errorf("ha: duplicate node name %q", name)
		}
		names[name] = true
		return nil
	}
	for _, s := range cfg.Sources {
		if err := claim(s.Name); err != nil {
			return nil, err
		}
	}
	for _, def := range cfg.Subjobs {
		if err := claim(def.ID); err != nil {
			return nil, err
		}
		t.nodes[def.ID] = &node{def: def}
	}
	for _, sk := range cfg.Sinks {
		if err := claim(sk.Name); err != nil {
			return nil, err
		}
		for _, in := range sk.Inputs {
			n := t.nodes[in]
			if n == nil {
				return nil, fmt.Errorf("ha: sink %s: unknown input %q", sk.Name, in)
			}
			n.sinks = append(n.sinks, sk.Name)
		}
	}

	order, err := t.topoSort()
	if err != nil {
		return nil, err
	}
	t.order = order

	// Routing tables: one shared Partitioner per keyed-parallel subjob, on
	// every producer of its inputs. An output queue holds one router, so a
	// producer may feed at most one keyed consumer.
	routes := map[string]*queue.Partitioner{}
	for _, id := range order {
		n := t.nodes[id]
		for _, in := range n.def.Inputs {
			if p := t.nodes[in]; p != nil {
				p.consumers = append(p.consumers, id)
			}
		}
		if !n.def.partitioned() {
			continue
		}
		n.split = queue.NewPartitioner(n.def.Partitions, n.def.instances())
		for _, in := range n.def.Inputs {
			if routes[in] != nil {
				return nil, fmt.Errorf("ha: %s feeds more than one keyed-parallel subjob", in)
			}
			routes[in] = n.split
			if p := t.nodes[in]; p != nil {
				p.down = n.split
			}
		}
	}

	// Sources.
	for _, s := range cfg.Sources {
		m := cl.Machine(s.Machine)
		if m == nil {
			return nil, fmt.Errorf("ha: source %s: unknown machine %q", s.Name, s.Machine)
		}
		src := cluster.NewSource(cluster.SourceConfig{
			Machine:     m,
			Clock:       cl.Clock(),
			Stream:      t.streamOf(s.Name),
			Rate:        s.Rate,
			Tick:        s.Tick,
			BurstOn:     s.BurstOn,
			BurstOff:    s.BurstOff,
			BurstFactor: s.BurstFactor,
		})
		if split := routes[s.Name]; split != nil {
			src.Out().SetPartitioner(split)
		}
		t.sources[s.Name] = src
	}

	// Subjob copies and lifecycles (phase A), in topological order: every
	// runtime exists before any wiring, so standby-to-standby early
	// connections can be created uniformly. The wiring closures resolve
	// lazily; lifecycles are armed in Start.
	for _, id := range order {
		n := t.nodes[id]
		for k := 0; k < n.def.instances(); k++ {
			pl := RescalePlacement{Primary: n.def.primaryOf(k), Secondary: n.def.secondaryOf(k), Spare: n.def.spareOf(k)}
			g, err := t.buildGroup(n, k, pl, false)
			if err != nil {
				return nil, err
			}
			n.groups = append(n.groups, g)
		}
	}

	// Sinks.
	for _, sk := range cfg.Sinks {
		m := cl.Machine(sk.Machine)
		if m == nil {
			return nil, fmt.Errorf("ha: sink %s: unknown machine %q", sk.Name, sk.Machine)
		}
		streams, owners := t.inputStreams(sk.Inputs)
		t.sinks[sk.Name] = cluster.NewSink(cluster.SinkConfig{
			Machine:     m,
			Clock:       cl.Clock(),
			ID:          cfg.JobID + "/" + sk.Name,
			InStreams:   streams,
			Owners:      owners,
			AckInterval: cfg.AckInterval,
			TrackIDs:    sk.TrackIDs,
		})
	}

	// Wiring (phase B): subscribe every consumer copy to every producer
	// copy of its inputs, with activity per the consumer's HA state. Keyed
	// consumers subscribe with their partition-instance index so the
	// producer's router filters their feed.
	for _, id := range order {
		n := t.nodes[id]
		for _, out := range t.producerOutputs(n.def.Inputs) {
			for _, g := range n.groups {
				for _, tgt := range g.ConsumerTargets(out.StreamID) {
					out.SubscribePart(tgt.Node, tgt.Stream, tgt.Active, tgt.Part)
				}
			}
		}
	}
	for _, sk := range cfg.Sinks {
		sink := t.sinks[sk.Name]
		for _, out := range t.producerOutputs(sk.Inputs) {
			tgt := sinkTarget(sink, out.StreamID)
			out.SubscribePart(tgt.Node, tgt.Stream, tgt.Active, tgt.Part)
		}
	}
	return t, nil
}

// streamOf names the output stream of a source or subjob instance.
func (t *Topology) streamOf(name string) string { return t.cfg.JobID + "/out/" + name }

// inputStreams lists the streams a consumer of inputs reads — one per
// source, one per producer instance, so each producer keeps its own
// sequence space and the downstream dedup stays per (stream, seq) — with
// each stream's producing owner.
func (t *Topology) inputStreams(inputs []string) ([]string, map[string]string) {
	var streams []string
	owners := make(map[string]string)
	for _, in := range inputs {
		p := t.nodes[in]
		if p == nil {
			st := t.streamOf(in)
			streams = append(streams, st)
			owners[st] = cluster.SourceOwner
			continue
		}
		for k := 0; k < p.def.instances(); k++ {
			st := t.streamOf(p.instance(k))
			streams = append(streams, st)
			owners[st] = t.cfg.JobID + "/" + p.instance(k)
		}
	}
	return streams, owners
}

// topoSort orders subjobs so producers precede consumers, rejecting cycles
// and unknown inputs.
func (t *Topology) topoSort() ([]string, error) {
	for _, def := range t.cfg.Subjobs {
		if len(def.Inputs) == 0 {
			return nil, fmt.Errorf("ha: subjob %s has no inputs", def.ID)
		}
		for _, in := range def.Inputs {
			if _, isSubjob := t.nodes[in]; !isSubjob && !t.isSource(in) {
				return nil, fmt.Errorf("ha: subjob %s: unknown input %q", def.ID, in)
			}
		}
	}
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(id string) error
	visit = func(id string) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("ha: topology cycle through %q", id)
		case 2:
			return nil
		}
		state[id] = 1
		for _, in := range t.nodes[id].def.Inputs {
			if _, isSubjob := t.nodes[in]; !isSubjob {
				continue
			}
			if err := visit(in); err != nil {
				return err
			}
		}
		state[id] = 2
		order = append(order, id)
		return nil
	}
	for _, def := range t.cfg.Subjobs {
		if err := visit(def.ID); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func (t *Topology) isSource(name string) bool {
	for _, s := range t.cfg.Sources {
		if s.Name == name {
			return true
		}
	}
	return false
}

// buildGroup deploys instance k of n on the machines pl names: the primary
// and, per the policy, a pre-deployed standby, each with its partition
// plumbing installed before start, plus the lifecycle that protects them.
// A rescale adds its instance with a suspended primary and no standby:
// the primary adopts the donor's state first, and the lifecycle seeds a
// standby from it when armed.
func (t *Topology) buildGroup(n *node, k int, pl RescalePlacement, rescale bool) (*Group, error) {
	cl := t.cfg.Cluster
	streams, owners := t.inputStreams(n.def.Inputs)
	spec := subjob.Spec{
		JobID:     t.cfg.JobID,
		ID:        t.cfg.JobID + "/" + n.instance(k),
		InStreams: streams,
		Owners:    owners,
		OutStream: t.streamOf(n.instance(k)),
		PEs:       n.def.PEs,
		BatchSize: n.def.BatchSize,
	}
	pol := policyFor(n.def.Mode, t.cfg.Hybrid, t.cfg.PS, t.cfg.Approx, t.cfg.AckInterval)
	priM, secM, spareM, err := resolvePlacement(cl, t.placer, placementReq{
		Subjob:       spec.ID,
		Primary:      pl.Primary,
		Secondary:    pl.Secondary,
		Spare:        pl.Spare,
		NeedsStandby: pol.NeedsStandbyMachine(),
	})
	if err != nil {
		return nil, err
	}
	deploy := func(m *machine.Machine, suspended bool) (*subjob.Runtime, error) {
		rt, err := subjob.New(spec, m, suspended)
		if err != nil {
			return nil, err
		}
		if n.split != nil {
			rt.SetInputPartition(n.split, k)
		}
		if n.down != nil {
			rt.Out().SetPartitioner(n.down)
		}
		rt.Start()
		return rt, nil
	}
	primary, err := deploy(priM, rescale)
	if err != nil {
		return nil, err
	}
	var secondary *subjob.Runtime
	if create, suspended := pol.PreDeploy(); create && !rescale {
		if secondary, err = deploy(secM, suspended); err != nil {
			return nil, err
		}
	}

	g := &Group{Spec: spec, Mode: n.def.Mode, Part: n.part(k)}
	g.HA = core.NewLifecycle(core.LifecycleConfig{
		Spec:             spec,
		Clock:            cl.Clock(),
		Primary:          primary,
		Secondary:        secondary,
		SecondaryMachine: secM,
		SpareMachine:     spareM, // nil if unset
		Wiring:           t.wiringFor(n, g),
		Policy:           pol,
		Placer:           t.placer,
		RearmInterval:    t.cfg.RearmInterval,
	})
	return g, nil
}

// placementReq carries one group's machine names into resolvePlacement;
// empty names are placement requests when a placer is available.
type placementReq struct {
	Subjob       string
	Primary      string
	Secondary    string
	Spare        string
	NeedsStandby bool
}

// resolvePlacement turns a group's machine names into machines. Named
// machines must exist — including the spare, whose absence would
// otherwise surface only as a silent nil at promotion time. Empty names
// are resolved through the placer when one is bound: the primary goes
// wherever capacity is, the standby anywhere outside the primary's fault
// domain. An empty spare stays nil — with a placer, promotion requests a
// replacement on demand.
func resolvePlacement(cl *cluster.Cluster, placer core.Placer, req placementReq) (priM, secM, spareM *machine.Machine, err error) {
	if req.Primary == "" && placer != nil {
		priM = placer.PlacePrimary(req.Subjob, nil)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for primary", req.Subjob)
		}
	} else {
		priM = cl.Machine(req.Primary)
		if priM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown primary machine %q", req.Subjob, req.Primary)
		}
	}
	if req.Secondary == "" && placer != nil && req.NeedsStandby {
		secM = placer.PlaceStandby(req.Subjob, priM)
		if secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: no schedulable capacity for standby outside the primary's fault domain", req.Subjob)
		}
	} else {
		secM = cl.Machine(req.Secondary)
		if req.NeedsStandby && secM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown secondary machine %q", req.Subjob, req.Secondary)
		}
	}
	if req.Spare != "" {
		spareM = cl.Machine(req.Spare)
		if spareM == nil {
			return nil, nil, nil, fmt.Errorf("ha: subjob %s: unknown spare machine %q", req.Subjob, req.Spare)
		}
	}
	return priM, secM, spareM, nil
}

// producerOutputs returns the live output queues of every source and
// subjob instance named in inputs.
func (t *Topology) producerOutputs(inputs []string) []*queue.Output {
	var outs []*queue.Output
	for _, in := range inputs {
		if s, ok := t.sources[in]; ok {
			outs = append(outs, s.Out())
			continue
		}
		for _, g := range t.Instances(in) {
			outs = append(outs, g.LiveOutputs()...)
		}
	}
	return outs
}

// sinkTarget is sink as the always-active consumer of stream.
func sinkTarget(sink *cluster.Sink, stream string) core.Target {
	return core.Target{Node: sink.Node(), Stream: subjob.DataStream(sink.ID(), stream), Active: true, Part: -1}
}

// wiringFor builds the lifecycle wiring closures for group g of n.
func (t *Topology) wiringFor(n *node, g *Group) core.Wiring {
	return core.Wiring{
		UpstreamOutputs: func() []*queue.Output { return t.producerOutputs(n.def.Inputs) },
		DownstreamTargets: func() []core.Target {
			var targets []core.Target
			for _, c := range n.consumers {
				for _, cg := range t.Instances(c) {
					targets = append(targets, cg.ConsumerTargets(g.Spec.OutStream)...)
				}
			}
			for _, name := range n.sinks {
				targets = append(targets, sinkTarget(t.sinks[name], g.Spec.OutStream))
			}
			return targets
		},
		OutPartitioner: n.down,
		InPartitioner:  n.split,
		Part:           g.Part,
	}
}

// Start launches sinks and HA lifecycles, then the sources — in that
// order, so no data is published before its consumers are wired.
func (t *Topology) Start() error {
	for _, sk := range t.cfg.Sinks {
		t.sinks[sk.Name].Start()
	}
	for _, g := range t.AllGroups() {
		if err := g.HA.Start(); err != nil {
			return err
		}
	}
	for _, s := range t.cfg.Sources {
		t.sources[s.Name].Start()
	}
	return nil
}

// Stop halts everything: sources first, then lifecycles (which own the
// copies and their HA apparatus) and the sinks.
func (t *Topology) Stop() {
	for _, s := range t.cfg.Sources {
		t.sources[s.Name].Stop()
	}
	for _, g := range t.AllGroups() {
		g.HA.Stop()
	}
	for _, sk := range t.cfg.Sinks {
		t.sinks[sk.Name].Stop()
	}
}

// Source returns the source named name, or nil.
func (t *Topology) Source(name string) *cluster.Source { return t.sources[name] }

// Sink returns the sink named name, or nil.
func (t *Topology) Sink(name string) *cluster.Sink { return t.sinks[name] }

// Group returns the subjob named id — its first instance if keyed-parallel
// — or nil.
func (t *Topology) Group(id string) *Group {
	if gs := t.Instances(id); len(gs) > 0 {
		return gs[0]
	}
	return nil
}

// Instances returns every instance of the subjob named id in partition
// order, or nil.
func (t *Topology) Instances(id string) []*Group {
	n := t.nodes[id]
	if n == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Group(nil), n.groups...)
}

// AllGroups returns every instance of every subjob in topological order.
func (t *Topology) AllGroups() []*Group {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Group
	for _, id := range t.order {
		out = append(out, t.nodes[id].groups...)
	}
	return out
}

// Partitioner returns the input routing table of the subjob named id, or
// nil if it is unknown or unpartitioned.
func (t *Topology) Partitioner(id string) *queue.Partitioner {
	if n := t.nodes[id]; n != nil {
		return n.split
	}
	return nil
}

// Order returns the subjobs in topological order.
func (t *Topology) Order() []string { return append([]string(nil), t.order...) }

// RegisterMetrics registers every component of the job in reg: transport
// traffic, source and sink state, each keyed subjob's routing table, and —
// per group — the current primary/standby runtimes plus the lifecycle
// (state, transition log), detector, checkpoint manager and store. Sources
// are closures that resolve the group's *current* components at snapshot
// time, so the registry keeps tracking across switchover, rollback and
// migration. Keyed-parallel instances register under their ".p<k>" spec
// IDs, giving per-partition delay, queue-depth and checkpoint series;
// groups added by a later ScaleOut self-register in the same registry.
func (t *Topology) RegisterMetrics(reg *metrics.Registry) {
	reg.Register("transport", func() any { return t.cfg.Cluster.Stats() })
	for _, s := range t.cfg.Sources {
		src := t.sources[s.Name]
		reg.Register("source/"+t.cfg.JobID+"/"+s.Name, func() any { return src.Stats() })
	}
	for _, sk := range t.cfg.Sinks {
		t.sinks[sk.Name].RegisterMetrics(reg)
	}
	for _, id := range t.order {
		if split := t.nodes[id].split; split != nil {
			reg.Register("partition/"+t.cfg.JobID+"/"+id, func() any { return split.Stats() })
		}
	}
	t.mu.Lock()
	t.reg = reg
	t.mu.Unlock()
	for _, g := range t.AllGroups() {
		registerGroupMetrics(reg, g)
	}
}

// registerGroupMetrics registers one group's components. Every mode gets
// the same set — sources resolve nil components (a NONE subjob's detector,
// an AS subjob's checkpoint manager) to null at snapshot time.
func registerGroupMetrics(reg *metrics.Registry, g *Group) {
	id := g.Spec.ID
	lc := g.HA
	reg.Register("subjob/"+id+"/primary", func() any {
		return lc.PrimaryRuntime().Stats()
	})
	reg.Register("subjob/"+id+"/standby", func() any {
		sec := lc.SecondaryRuntime()
		if sec == nil {
			return nil
		}
		return sec.Stats()
	})
	reg.Register("ha/"+id, func() any { return lc.Stats() })
	reg.Register("detector/"+id, func() any {
		det := lc.Detector()
		if det == nil {
			return nil
		}
		return det.Stats()
	})
	reg.Register("checkpoint/"+id, func() any {
		if cm := lc.Checkpoint(); cm != nil {
			return cm.Stats()
		}
		return nil
	})
	reg.Register("store/"+id, func() any {
		if st := lc.Store(); st != nil {
			return st.Stats()
		}
		return nil
	})
	if dr, ok := lc.Policy().(core.DivergenceReporter); ok {
		reg.Register("subjob/"+id+"/divergence", func() any { return dr.Divergence() })
	}
}
