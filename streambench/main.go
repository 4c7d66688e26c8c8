// Command streambench is the streamha benchmark. It runs one workload
// against the real ha.Pipeline — the paper's chain of four subjobs with two
// CounterLogic PEs each, fed by the pipeline's own open-loop cluster.Source
// — and prints one JSON result line.
//
//	streambench -workload steady-hybrid -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics: set-up time, delay from
// each element's due time (t0 + n/rate), CPU, allocation and RSS per
// element, wire element units per element and the sink's outage. With
// -trace 1 it runs the workload again with per-layer instrumentation (a
// timing pe.Logic wrapper, the transport.Mem observer, public stats, a
// replay of captured checkpoint payloads through the subjob codec), climbs
// the rate ladder for the highest rate meeting the delay limit, and
// reports per-layer metrics; spans go to .bench_build/traces. Every run audits exactly-once delivery and
// each element's payload with a per-ID bitmap fed by the sink's arrival
// hook. -selfcheck runs every workload briefly and fails if a metric is
// missing or a workload does not exercise the layers it is meant to.
//
// Only the failure schedule of failover-hybrid depends on the seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"delay_p50_ms", "ms"},
	{"delay_p99_ms", "ms"},
	{"cpu_us_per_elem", "us"},
	{"alloc_b_per_elem", "B"},
	{"rss_peak_mb", "MB"},
	{"wire_units_per_elem", "units"},
	{"outage_ms", "ms"},
}

// perLayer lists the traced run's metrics. max_rate_eps, the ladder's
// highest passing rate, is end to end in nature but rides here: near
// capacity a rung passes or fails on the host's scheduling noise, and
// across runs it spreads wider than any bound an end-to-end metric may
// have.
var perLayer = []metricSpec{
	{"max_rate_eps", "elem/s"},
	{"cluster.source_offered_frac", "ratio"},
	{"cluster.source_lag_p99_ms", "ms"},
	{"cluster.sink_delay_origin_p50_ms", "ms"},
	{"cluster.sink_delay_origin_p99_ms", "ms"},
	{"cluster.backlog_max", "count"},
	{"transport.data_msgs_per_elem", "msg/elem"},
	{"transport.elems_per_data_msg", "elem/msg"},
	{"transport.ack_msgs_per_s", "1/s"},
	{"transport.ckpt_bytes_per_s", "B/s"},
	{"transport.hb_msgs_per_s", "1/s"},
	{"queue.in_dup_frac", "ratio"},
	{"queue.in_gaps", "count"},
	{"queue.backlog_p99", "count"},
	{"queue.out_retained_p99", "count"},
	{"queue.replayed_elems_per_failover", "count"},
	{"pe.process_ns_per_elem", "ns"},
	{"pe.snapshot_us", "us"},
	{"pe.restore_us", "us"},
	{"subjob.ckpt_decode_us", "us"},
	{"subjob.ckpt_encode_us", "us"},
	{"subjob.ckpt_bytes", "B"},
	{"checkpoint.taken_per_s", "1/s"},
	{"checkpoint.encode_ms_mean", "ms"},
	{"checkpoint.ship_ms_mean", "ms"},
	{"checkpoint.pause_ms_mean", "ms"},
	{"checkpoint.standby_applied_frac", "ratio"},
	{"checkpoint.pending_acks_max", "count"},
	{"core.detect_ms", "ms"},
	{"core.switch_ms", "ms"},
	{"core.reprocess_ms", "ms"},
	{"core.rollback_ms", "ms"},
	{"core.rollback_state_units", "units"},
	{"core.promote_ms", "ms"},
	{"core.false_switchover_frac", "ratio"},
	{"detect.misses_per_stall", "count"},
	{"sched.placements", "count"},
	{"sched.place_ms", "ms"},
	{"sched.rearm_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_objects_per_elem", "count"},
	{"go.goroutines_max", "count"},
	{"audit.fail_frac", "ratio"},
	{"trace.overhead_cpu_us_per_elem", "us"},
	{"trace.attributed_frac", "ratio"},
	{"trace.unattributed_cpu_us_per_elem", "us"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	sha       string
	sourceSHA string
}

// traceDir is where traced runs write their spans, under the checkout's
// benchmark build directory.
var traceDir = filepath.Join(".bench_build", "traces")

// budget splits a run's --seconds over its phases.
type budget struct {
	setupReps              int
	warm, window, baseline time.Duration
	rungWarm, rungWindow   time.Duration
}

func budgetFor(w workload, seconds int) budget {
	s := time.Duration(seconds) * time.Second
	b := budget{
		setupReps:  9,
		warm:       time.Second,
		window:     s * 75 / 100,
		baseline:   max(time.Second, s*15/100),
		rungWarm:   300 * time.Millisecond,
		rungWindow: min(3*time.Second, max(500*time.Millisecond, s*4/100)),
	}
	if w.failover {
		// Room for several stalls plus the fail-stop, promotion and re-arm.
		b.window = max(5*time.Second, b.window)
	}
	return b
}

func main() {
	var o options
	var traceFlag int
	selfcheck := flag.Bool("selfcheck", false, "run every workload briefly and check that all metrics are present and each workload exercises its layers")
	flag.StringVar(&o.workload, "workload", "", "workload: steady-hybrid, steady-active or failover-hybrid")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the failure schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run (1-60)")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.sha, "sha", "unknown", "git SHA of the code under test, recorded in the metadata")
	flag.StringVar(&o.sourceSHA, "source-sha", "unknown", "hash of the source tree under test, recorded in the metadata")
	flag.Parse()
	o.trace = traceFlag == 1
	if *selfcheck {
		if err := runSelfcheck(o); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck failed:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck ok")
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 || o.seconds > 60 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: streambench -workload <steady-hybrid|steady-active|failover-hybrid> -seed N -seconds 1..60 -trace 0|1")
		os.Exit(2)
	}
	res, meta, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streambench:", err)
		os.Exit(1)
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
}

// run executes one workload and returns its result and metadata.
func run(w workload, o options) (*result, map[string]any, error) {
	b := budgetFor(w, o.seconds)
	meta := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"git_sha": o.sha, "source_sha256": o.sourceSHA, "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"nominal_rate": w.rate, "state_slots": w.slots, "pe_cost_us": float64(w.peCost) / 1e3,
		"window_s": b.window.Seconds(),
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &result{Correct: true, Metrics: map[string]metricValue{}}

	setups, err := runSetups(w, b.setupReps, tr)
	if err != nil {
		return nil, nil, err
	}
	var base *phase
	if o.trace {
		// Untraced baseline for the tracing overhead and the wrapper check.
		if base, err = runNominal(w, b.warm, b.baseline, o.seed, nil); err != nil {
			return nil, nil, err
		}
		addAudit(res, base)
	}
	ph, err := runNominal(w, b.warm, b.window, o.seed, tr)
	if err != nil {
		return nil, nil, err
	}
	addAudit(res, ph)
	setups = append(setups, ph.setup.Seconds())
	var maxRate float64
	if o.trace {
		var rungs []rung
		if maxRate, rungs, err = runLadder(w, b.rungWarm, b.rungWindow, tr); err != nil {
			return nil, nil, err
		}
		var rungMeta []map[string]any
		for _, r := range rungs {
			res.Attempted += int64(r.audited)
			res.Failed += r.failed
			rungMeta = append(rungMeta, map[string]any{
				"rate": r.rate, "pass": r.pass, "reason": r.reason, "p99_ms": r.p99MS,
				"offered_frac": r.offered, "backlog_growth": r.growth, "backlog_max": r.backlogMax,
			})
		}
		meta["ladder"] = rungMeta
	}
	res.Correct = res.Correct && res.Failed == 0

	meta["setup_samples"] = len(setups)
	meta["delay_samples"] = ph.samples
	meta["delay_missing"] = ph.missing
	meta["outage_windows"] = len(ph.outages)
	meta["delivered_in_window"] = ph.received
	meta["audit"] = map[string]any{"emitted": ph.totalEmitted, "lost": ph.lost, "duplicated": ph.dups, "wrong": ph.wrong}
	ev := ph.events
	meta["failures"] = map[string]any{
		"stalls": ev.stalls, "switched": ev.switched, "rolled_back": ev.rolledBack,
		"switchovers": ev.switches, "false_switchovers": ev.falseSwitches,
		"promoted": ev.promoted, "rearmed": ev.rearmed,
	}

	if !o.trace {
		put := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
		put("setup_s", median(setups))
		put("delay_p50_ms", ph.p50)
		put("delay_p99_ms", ph.p99)
		put("cpu_us_per_elem", median(ph.cpuPer))
		put("alloc_b_per_elem", perElem(float64(ph.proc.alloc), ph.received))
		put("rss_peak_mb", ph.rssMB)
		put("wire_units_per_elem", perElem(float64(ph.wire.TotalElements()), ph.received))
		put("outage_ms", median(ph.outages))
		return res, meta, nil
	}

	layers, check := layerMetrics(ph, base, tr)
	layers["max_rate_eps"] = maxRate
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	meta["wrapper_check"] = check
	if check != "" {
		res.Correct = false
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path, meta); err != nil {
		return nil, nil, err
	}
	meta["trace_file"] = path
	return res, meta, nil
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func perElem(total float64, elems int64) float64 { return ratio(total, float64(elems)) }

// addAudit folds a nominal phase's exactly-once audit into the result.
func addAudit(res *result, ph *phase) {
	res.Attempted += int64(ph.totalEmitted)
	res.Failed += ph.lost + ph.dups + ph.wrong
}

// runSetups deploys w reps times at its nominal rate and returns each
// set-up time (build start to first delivery) in seconds.
func runSetups(w workload, reps int, tr *tracer) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		d, err := deploy(w, w.rate, planFor(w.rate, 0, 0, 5*time.Second), nil)
		if err != nil {
			return nil, err
		}
		setup, err := d.waitFirst(5 * time.Second)
		d.close()
		if err != nil {
			return nil, err
		}
		out = append(out, setup.Seconds())
		if tr != nil {
			root := tr.span(0, "setup", d.base, d.probe.firstAt, map[string]any{"rep": i, "placements": d.placements})
			tr.span(root, "cluster_build", d.base, d.clusterBuilt, nil)
			tr.span(root, "new_pipeline", d.clusterBuilt, d.pipelineBuilt, nil)
			tr.span(root, "start", d.pipelineBuilt, d.t0, nil)
			tr.span(root, "first_delivery", d.t0, d.probe.firstAt, nil)
		}
	}
	return out, nil
}
