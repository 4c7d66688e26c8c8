package ha

import (
	"fmt"
	"time"

	"streamha/internal/cluster"
	"streamha/internal/core"
	"streamha/internal/metrics"
	"streamha/internal/queue"
	"streamha/internal/sched"
)

// PipelineConfig deploys a chain job (the paper's 8-PE / 4-subjob
// experimental topology, generalized).
type PipelineConfig struct {
	// Cluster supplies machines, network and clock.
	Cluster *cluster.Cluster
	// JobID names the job; stream and subjob names derive from it.
	JobID string
	// Source feeds the first subjob.
	Source SourceDef
	// SinkMachine hosts the measuring sink.
	SinkMachine string
	// Subjobs is the chain, upstream to downstream.
	Subjobs []SubjobDef
	// Hybrid, PS, Approx, AckInterval, Scheduler and RearmInterval tune
	// the job as in TopologyConfig.
	Hybrid      core.Options
	PS          PSOptions
	Approx      core.ErrorBudget
	AckInterval time.Duration
	// TrackIDs makes the sink retain per-ID delivery counts for
	// exactly-once verification in tests.
	TrackIDs      bool
	Scheduler     *sched.Scheduler
	RearmInterval time.Duration
}

// Pipeline is a deployed chain job: a Topology of source → sj0 → … →
// sink, addressed by stage index.
type Pipeline struct {
	t      *Topology
	source string
	stages []string // stage i's subjob ID
}

// pipelineSink names the chain's sink node.
const pipelineSink = "sink"

// NewPipeline builds and wires the chain; call Start to begin processing.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if len(cfg.Subjobs) == 0 {
		return nil, fmt.Errorf("ha: pipeline needs at least one subjob")
	}
	src := cfg.Source
	if src.Name == "" {
		src.Name = "src"
	}
	p := &Pipeline{source: src.Name}
	defs := make([]SubjobDef, len(cfg.Subjobs))
	prev := src.Name
	for i, def := range cfg.Subjobs {
		if def.ID == "" {
			def.ID = fmt.Sprintf("sj%d", i)
		}
		def.Inputs = []string{prev}
		prev = def.ID
		defs[i] = def
		p.stages = append(p.stages, def.ID)
	}
	t, err := NewTopology(TopologyConfig{
		Cluster:       cfg.Cluster,
		JobID:         cfg.JobID,
		Sources:       []SourceDef{src},
		Subjobs:       defs,
		Sinks:         []TopologySink{{Name: pipelineSink, Machine: cfg.SinkMachine, Inputs: []string{prev}, TrackIDs: cfg.TrackIDs}},
		Hybrid:        cfg.Hybrid,
		PS:            cfg.PS,
		Approx:        cfg.Approx,
		AckInterval:   cfg.AckInterval,
		Scheduler:     cfg.Scheduler,
		RearmInterval: cfg.RearmInterval,
	})
	if err != nil {
		return nil, err
	}
	p.t = t
	return p, nil
}

// Start launches sink and HA lifecycles, then the source.
func (p *Pipeline) Start() error { return p.t.Start() }

// Stop halts source, lifecycles and sink.
func (p *Pipeline) Stop() { p.t.Stop() }

// Source returns the job's source.
func (p *Pipeline) Source() *cluster.Source { return p.t.Source(p.source) }

// Sink returns the job's sink.
func (p *Pipeline) Sink() *cluster.Sink { return p.t.Sink(pipelineSink) }

// Groups returns one group per stage in chain order: the sole group of an
// unpartitioned stage, instance 0 of a keyed-parallel one. Use
// StageInstances for every instance.
func (p *Pipeline) Groups() []*Group {
	out := make([]*Group, len(p.stages))
	for i := range p.stages {
		out[i] = p.Group(i)
	}
	return out
}

// Group returns stage i's first instance.
func (p *Pipeline) Group(i int) *Group { return p.t.Group(p.stages[i]) }

// StageInstances returns every instance of stage i in partition order.
func (p *Pipeline) StageInstances(i int) []*Group { return p.t.Instances(p.stages[i]) }

// AllGroups returns every group of every stage, stage-major.
func (p *Pipeline) AllGroups() []*Group { return p.t.AllGroups() }

// StagePartitioner returns stage i's input routing table, or nil for an
// unpartitioned stage.
func (p *Pipeline) StagePartitioner(i int) *queue.Partitioner {
	return p.t.Partitioner(p.stages[i])
}

// Streams returns the base stream names along the chain, the source's
// first, then each stage's output. A keyed-parallel stage's instances
// suffix ".p<k>" to their stage's base name.
func (p *Pipeline) Streams() []string {
	out := []string{p.t.streamOf(p.source)}
	for _, id := range p.stages {
		out = append(out, p.t.streamOf(id))
	}
	return out
}

// ScaleOut grows keyed-parallel stage stage by one instance while the job
// keeps serving; only the last stage qualifies (see Topology.ScaleOut).
func (p *Pipeline) ScaleOut(stage int, pl RescalePlacement, opt RescaleOptions) (*RescaleReport, error) {
	if stage < 0 || stage >= len(p.stages) {
		return nil, fmt.Errorf("ha: ScaleOut: no stage %d in a %d-stage chain", stage, len(p.stages))
	}
	return p.t.ScaleOut(p.stages[stage], pl, opt)
}

// RegisterMetrics registers every component of the chain in reg (see
// Topology.RegisterMetrics).
func (p *Pipeline) RegisterMetrics(reg *metrics.Registry) { p.t.RegisterMetrics(reg) }
