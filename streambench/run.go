package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamha/internal/failure"
	"streamha/internal/transport"
)

// Ladder and phase limits.
const (
	// delayLimitMS is the p99 delay a ladder rung must meet.
	delayLimitMS = 100
	// offeredMin is the share of due elements the source must emit.
	offeredMin = 0.99
	// ladderStep is the ratio between neighbouring rungs of the fixed
	// geometric ladder nominal×ladderStep^k; the search climbs coarseRungs
	// rungs at a time, then bisects between the last passing and the first
	// failing rung, never running a rung above a failed one.
	ladderStep  = 1.05
	coarseRungs = 8
	maxRungs    = 24
	// stallSettle is how long after a stall its outage and lifecycle events
	// are attributed to it; the next stall starts later than this.
	stallSettle = 450 * time.Millisecond
	// delaySlice is the slice length of the median delay percentiles on
	// steady workloads: 1000 elements at 50k elem/s, so a slice's p99 still
	// has ten samples beyond it, and short enough that on a host where the
	// hypervisor takes the CPU away many times a second most slices see
	// none of it.
	delaySlice = 20 * time.Millisecond
	// rungSlice is the slice length of a rung's median p99 and offered
	// share; a slice spans 50 source ticks.
	rungSlice = 100 * time.Millisecond
)

// sleepUntil sleeps until t (no-op if t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// planFor returns the probe plan of a phase: warm-up, then a measured
// window, with the bitmap sized for the phase's longest possible run.
func planFor(rate float64, warm, window, tail time.Duration) probePlan {
	lo := uint64(math.Ceil(rate*warm.Seconds())) + 1
	hi := uint64(rate * (warm + window).Seconds())
	total := (warm + window + tail).Seconds()
	return probePlan{
		maxID: uint64(rate*total*1.2) + 100000,
		lo:    lo,
		hi:    hi,
		gaps:  int(total*2000) + 4096,
	}
}

// stallRec is one injected transient failure.
type stallRec struct {
	group      int
	node       transport.NodeID
	start, end time.Time
	misses     int64 // heartbeats missed (traced runs only)
}

// phase is the outcome of one nominal-rate deployment.
type phase struct {
	d        *deployment
	setup    time.Duration
	proc     procDelta
	cpuPer   []float64 // CPU µs per delivered element, per one-second slice
	received int64     // sink deliveries in the window
	offered  float64   // share of the window's due load the source emitted
	wire     transport.Stats
	rssMB    float64 // peak resident set over the window (100 ms samples)
	p50, p99 float64 // ms from due time, medians of per-second slices
	samples  int
	missing  int
	outages  []float64
	stalls   []stallRec
	crash    *stallRec
	layers   layerSnap // layer counters at the window's start and end
	layerEnd layerSnap
	smp      *sampler
	events   eventSummary

	totalEmitted      uint64
	lost, dups, wrong int64
}

// cpuSlice is the process CPU time and sink deliveries at one slice
// boundary of the measured window.
type cpuSlice struct {
	cpu  time.Duration
	recv uint64
}

// windowSamples is what sampleWindow collects over a measured window.
type windowSamples struct {
	slices []cpuSlice // one per second
	rssMB  float64    // highest resident set size seen
}

// sampleWindow records a cpuSlice every second and the resident set size
// every 100 ms from ws until we.
func sampleWindow(d *deployment, ws, we time.Time) <-chan windowSamples {
	out := make(chan windowSamples, 1)
	go func() {
		var s windowSamples
		for i, t := 0, ws; !t.After(we); i, t = i+1, t.Add(100*time.Millisecond) {
			sleepUntil(t)
			s.rssMB = max(s.rssMB, rssMB())
			if i%10 == 0 {
				s.slices = append(s.slices, cpuSlice{cpuTime(), d.pipe.Sink().Received()})
			}
		}
		out <- s
	}()
	return out
}

// runNominal deploys w at its nominal rate, warms up, measures one window
// (injecting the seeded failure schedule on failover workloads), waits for
// the window's elements, then drains and audits.
func runNominal(w workload, warm, window time.Duration, seed int64, tr *tracer) (*phase, error) {
	tail := 12 * time.Second
	d, err := deploy(w, w.rate, planFor(w.rate, warm, window, tail), tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	ph := &phase{d: d}
	if ph.setup, err = d.waitFirst(5 * time.Second); err != nil {
		return nil, err
	}
	ws := d.t0.Add(warm)
	we := ws.Add(window)
	sampling := sampleWindow(d, ws, we)
	sleepUntil(ws)
	p0 := readProc()
	w0 := d.cl.Stats()
	r0 := d.pipe.Sink().Received()
	ph.layers = tr.snapshot(d)
	if tr != nil {
		tr.startSampler(d)
	}
	if w.failover {
		runFailures(d, ph, ws, we, seed, tr)
	}
	sleepUntil(we)
	p1 := readProc()
	w1 := d.cl.Stats()
	r1 := d.pipe.Sink().Received()
	ph.layerEnd = tr.snapshot(d)
	if tr != nil {
		ph.smp = tr.stopSampler()
	}
	ph.proc = diffProc(p0, p1)
	ph.wire = w1.Sub(w0)
	ph.received = int64(r1 - r0)
	sampled := <-sampling
	ph.rssMB = sampled.rssMB
	cs := sampled.slices
	for i := 1; i < len(cs); i++ {
		if n := cs[i].recv - cs[i-1].recv; n > 0 {
			ph.cpuPer = append(ph.cpuPer, float64(cs[i].cpu-cs[i-1].cpu)/1e3/float64(n))
		}
	}

	// Let the window's last elements arrive; the source keeps running so
	// the pipeline stays in its measured regime.
	waitEnd := time.Now().Add(3 * time.Second)
	for d.probe.inWindow.Load() < d.probe.windowSize() && time.Now().Before(waitEnd) {
		time.Sleep(5 * time.Millisecond)
	}
	if w.failover {
		// The fail-stop's promotion and re-arm may still be in progress.
		waitRearm(d, ph, 3*time.Second)
	}
	ph.events = summarizeEvents(d, ph, ws, time.Now(), tr)
	ph.totalEmitted, ph.lost, ph.dups, ph.wrong = d.drain(5 * time.Second)

	// On steady workloads the delay percentiles are medians over
	// delaySlice slices, so a hiccup that lands in one slice moves one
	// slice's value, not the result. On failover workloads the injected
	// failures, each spanning several slices, are what is measured: the
	// percentiles cover the whole window. Elements never delivered by the
	// deadline, which came at least the wait after the window, count as
	// that late.
	delays, shed := d.probe.delays()
	ph.offered = d.probe.offered(shed, 0, len(delays))
	per := int(w.rate * delaySlice.Seconds())
	if w.failover {
		per = len(delays)
	}
	p50s, p99s, _, samples, missing := d.probe.sliceStats(delays, shed, per, ms(waitEnd.Sub(we)))
	ph.p50, ph.p99, ph.samples, ph.missing = median(p50s), median(p99s), samples, missing
	ph.outages = outages(d, ph, ws, we)
	tr.span(0, "nominal."+w.name, ws, we, map[string]any{
		"rate": w.rate, "delivered": ph.received, "offered_frac": ph.offered,
		"delay_samples": ph.samples, "missing": ph.missing,
	})
	return ph, nil
}

// outageSlice is the slice of a failure-free window over which the longest
// sink output gap is taken: ten source ticks.
const outageSlice = 20 * time.Millisecond

// outages returns, per window, the longest sink output gap: per injected
// stall from its start to its end plus stallSettle on failover workloads.
// With no failure injected there is no outage to time, and the median of
// the longest gap per outageSlice is the sink's normal output cadence,
// the baseline an outage would stand out from.
func outages(d *deployment, ph *phase, ws, we time.Time) []float64 {
	var out []float64
	rel := func(t time.Time) float64 { return ms(t.Sub(d.base)) }
	if len(ph.stalls) > 0 {
		for _, s := range ph.stalls {
			out = append(out, d.probe.longestGap(rel(s.start), rel(s.end.Add(stallSettle))))
		}
		return out
	}
	for t := ws; !t.Add(outageSlice).After(we); t = t.Add(outageSlice) {
		out = append(out, d.probe.longestGap(rel(t), rel(t.Add(outageSlice))))
	}
	return out
}

// runFailures executes the seeded failure schedule inside [ws, we]: 400 ms
// full-load stalls on the current primaries in a seed-permuted rotation,
// with seed-drawn pauses between them, then one fail-stop crash of a
// primary timed so its promotion and re-arm complete inside the window.
func runFailures(d *deployment, ph *phase, ws, we time.Time, seed int64, tr *tracer) {
	rng := rand.New(rand.NewSource(seed))
	groups := d.groups()
	order := rng.Perm(len(groups))
	crashAt := we.Add(-(failStopAfter + 1200*time.Millisecond))
	next := ws.Add(200 * time.Millisecond)
	i := 0
	for next.Add(stallLength + stallSettle).Before(crashAt) {
		sleepUntil(next)
		gi := order[i%len(order)]
		m := groups[gi].PrimaryRuntime().Machine()
		var pings, pongs int64
		if tr != nil {
			pings, pongs = tr.stallBegin(m.ID())
		}
		sp := failure.InjectOnce(m.CPU(), d.cl.Clock(), 1.0, stallLength, 0)
		rec := stallRec{group: gi, node: m.ID(), start: sp.Start, end: sp.End}
		if tr != nil {
			rec.misses = tr.stallEnd(pings, pongs)
		}
		ph.stalls = append(ph.stalls, rec)
		next = sp.End.Add(stallSettle + 50*time.Millisecond + time.Duration(rng.Int63n(int64(250*time.Millisecond))))
		i++
	}
	sleepUntil(crashAt)
	gi := order[i%len(order)]
	m := groups[gi].PrimaryRuntime().Machine()
	at := time.Now()
	if err := d.cl.CrashMachine(string(m.ID())); err == nil {
		ph.crash = &stallRec{group: gi, node: m.ID(), start: at, end: at}
	}
}

// waitRearm waits until the crashed group has re-armed protection.
func waitRearm(d *deployment, ph *phase, timeout time.Duration) {
	if ph.crash == nil {
		return
	}
	g := d.groups()[ph.crash.group]
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		for _, r := range g.HA.Rearms() {
			if r.At.After(ph.crash.start) {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// eventSummary attributes lifecycle events to the injected failures.
type eventSummary struct {
	stalls, switched, rolledBack int
	switches, falseSwitches      int
	promoted, rearmed            bool
	detectMS, switchMS, reprocMS []float64
	rollbackMS, rollbackUnits    []float64
	promoteMS, rearmMS           float64
}

func summarizeEvents(d *deployment, ph *phase, ws, until time.Time, tr *tracer) eventSummary {
	var ev eventSummary
	ev.stalls = len(ph.stalls)
	groups := d.groups()
	matched := map[int]map[time.Time]bool{}
	mark := func(gi int, at time.Time) {
		if matched[gi] == nil {
			matched[gi] = map[time.Time]bool{}
		}
		matched[gi][at] = true
	}
	for _, s := range ph.stalls {
		g := groups[s.group]
		to := s.end.Add(stallSettle)
		parent := tr.span(0, "stall", s.start, s.end, map[string]any{"group": s.group, "node": string(s.node), "heartbeats_missed": s.misses})
		for _, sw := range g.HA.Failovers() {
			if sw.DetectedAt.Before(s.start) || sw.DetectedAt.After(to) {
				continue
			}
			mark(s.group, sw.DetectedAt)
			ev.switched++
			ev.detectMS = append(ev.detectMS, ms(sw.DetectedAt.Sub(s.start)))
			ev.switchMS = append(ev.switchMS, ms(sw.ReadyAt.Sub(sw.DetectedAt)))
			det := tr.span(parent, "detect", s.start, sw.DetectedAt, nil)
			ready := tr.span(det, "switchover", sw.DetectedAt, sw.ReadyAt, nil)
			if tr != nil {
				if sec := g.HA.StandbyMachine(); sec != nil {
					if first, ok := tr.firstSendAfter(sec.ID(), sw.ReadyAt); ok {
						ev.reprocMS = append(ev.reprocMS, ms(first.Sub(sw.ReadyAt)))
						tr.span(ready, "first_output", sw.ReadyAt, first, nil)
					}
				}
			}
			break
		}
		for _, rb := range g.HA.Rollbacks() {
			if rb.StartedAt.Before(s.start) || rb.StartedAt.After(to) {
				continue
			}
			ev.rolledBack++
			ev.rollbackMS = append(ev.rollbackMS, ms(rb.DoneAt.Sub(rb.StartedAt)))
			ev.rollbackUnits = append(ev.rollbackUnits, float64(rb.StateUnits))
			tr.span(parent, "rollback", rb.StartedAt, rb.DoneAt, map[string]any{"state_units": rb.StateUnits, "adopted": rb.Adopted})
			break
		}
	}
	if c := ph.crash; c != nil {
		g := groups[c.group]
		parent := tr.span(0, "crash", c.start, c.start, map[string]any{"group": c.group, "node": string(c.node)})
		for _, sw := range g.HA.Failovers() {
			if !sw.DetectedAt.Before(c.start) {
				mark(c.group, sw.DetectedAt)
				tr.span(parent, "switchover", sw.DetectedAt, sw.ReadyAt, nil)
				break
			}
		}
		for _, p := range g.HA.Promotions() {
			if p.At.Before(c.start) {
				continue
			}
			ev.promoted = true
			ev.promoteMS = ms(p.At.Sub(c.start))
			prom := tr.span(parent, "promote", c.start, p.At, nil)
			for _, r := range g.HA.Rearms() {
				if !r.At.Before(p.At) {
					ev.rearmed = true
					ev.rearmMS = ms(r.At.Sub(p.At))
					tr.span(prom, "rearm", p.At, r.At, map[string]any{"host": r.Host})
					break
				}
			}
			break
		}
	}
	for gi, g := range groups {
		for _, sw := range g.HA.Failovers() {
			if sw.DetectedAt.Before(ws) || sw.DetectedAt.After(until) {
				continue
			}
			ev.switches++
			if !matched[gi][sw.DetectedAt] {
				ev.falseSwitches++
			}
		}
	}
	return ev
}

// rung is one ladder step's outcome.
type rung struct {
	k          int
	rate       float64
	pass       bool
	reason     string
	p99MS      float64
	offered    float64
	growth     int64
	backlogMax int64
	audited    uint64
	failed     int64
}

// rungRate is the ladder's k-th rung.
func rungRate(nominal float64, k int) float64 { return nominal * math.Pow(ladderStep, float64(k)) }

// runLadder searches the fixed geometric ladder from the nominal rate and
// returns the highest passing rate with every rung run (maxRungs bounds
// the runs). If the nominal rung fails, the search walks down instead so
// the result stays a measured rate.
// Rungs run untraced; spans, when set, records one span per rung.
func runLadder(w workload, warm, window time.Duration, spans *tracer) (float64, []rung, error) {
	var rungs []rung
	// A rung that fails is run once more and fails only if the retry fails
	// too: a single scheduling hiccup must not end the climb.
	try := func(k int) (bool, error) {
		for attempt := 0; attempt < 2; attempt++ {
			r, err := runRung(w, k, warm, window, spans)
			if err != nil {
				return false, err
			}
			rungs = append(rungs, r)
			if r.pass {
				return true, nil
			}
		}
		return false, nil
	}
	pass, err := try(0)
	if err != nil {
		return 0, rungs, err
	}
	lo, hi := 0, 0 // highest passing, lowest failing rung
	if pass {
		for k := coarseRungs; ; k += coarseRungs {
			ok, err := try(k)
			if err != nil {
				return 0, rungs, err
			}
			if !ok {
				hi = k
				break
			}
			lo = k
			if len(rungs) >= maxRungs {
				return rungRate(w.rate, lo), rungs, nil
			}
		}
	} else {
		hi = 0
		for k := -coarseRungs; ; k -= coarseRungs {
			ok, err := try(k)
			if err != nil {
				return 0, rungs, err
			}
			if ok {
				lo = k
				break
			}
			hi = k
			if len(rungs) >= maxRungs {
				return 0, rungs, fmt.Errorf("%s: no ladder rung down to %.0f elem/s passed", w.name, rungRate(w.rate, k))
			}
		}
	}
	for hi-lo > 1 && len(rungs) < maxRungs {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, rungs, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rungRate(w.rate, lo), rungs, nil
}

// runRung runs one ladder rung on a fresh deployment: warm-up, a measured
// window and a short wait for the window's elements. A rung fails when its
// p99 delay from due time exceeds delayLimitMS, the source emitted less
// than offeredMin of what was due, the backlog grew, or the backlog hit
// its cap (which also ends the rung early). Every rung is drained; a
// passing rung's exactly-once audit counts towards the result.
func runRung(w workload, k int, warm, window time.Duration, spans *tracer) (rung, error) {
	rate := rungRate(w.rate, k)
	r := rung{k: k, rate: rate}
	plan := planFor(rate, warm, window, 6*time.Second)
	plan.gaps = 0
	d, err := deploy(w, rate, plan, nil)
	if err != nil {
		return r, err
	}
	defer d.close()
	start := time.Now()
	if _, err := d.waitFirst(3 * time.Second); err != nil {
		r.reason = "no delivery"
		return r, nil
	}
	backlogCap := int64(math.Max(50000, rate*0.5))
	ws := d.t0.Add(warm)
	we := ws.Add(window)
	var samples []int64 // in-flight elements over the measured window
	watch := func(until time.Time, record bool) bool {
		for time.Now().Before(until) {
			n := d.inflight()
			r.backlogMax = max(r.backlogMax, n)
			if n > backlogCap {
				return false
			}
			if record {
				samples = append(samples, n)
			}
			time.Sleep(20 * time.Millisecond)
		}
		return true
	}
	defer func() {
		spans.span(0, "rung", start, time.Now(), map[string]any{
			"k": r.k, "rate": r.rate, "pass": r.pass, "reason": r.reason, "p99_ms": r.p99MS,
			"offered_frac": r.offered, "backlog_growth": r.growth, "backlog_max": r.backlogMax,
		})
	}()
	if !watch(ws, false) || !watch(we, true) {
		r.reason = "backlog cap"
		return r, nil
	}
	due := rate * we.Sub(ws).Seconds()
	// Growth compares the mean backlog of the window's two halves; single
	// readings swing by a tick's batch.
	half := len(samples) / 2
	r.growth = int64(mean(toFloats(samples[half:])) - mean(toFloats(samples[:half])))
	waitEnd := time.Now().Add(delayLimitMS * time.Millisecond * 5)
	for d.probe.inWindow.Load() < d.probe.windowSize() && time.Now().Before(waitEnd) {
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the pipeline before reading the probe, which the sink fills;
	// the drain's audit counts only if the rung passes.
	emitted, lost, dups, wrong := d.drain(2 * time.Second)
	// The rung's delay and offered share are medians over rungSlice
	// slices: sustained overload shows in every slice, a single hiccup in
	// one. Elements never delivered count as over any limit.
	delays, shed := d.probe.delays()
	_, p99s, offered, _, _ := d.probe.sliceStats(delays, shed, int(rate*rungSlice.Seconds()), math.Inf(1))
	r.p99MS, r.offered = median(p99s), median(offered)
	switch {
	case r.offered < offeredMin:
		r.reason = "under-offered"
	case r.p99MS > delayLimitMS:
		r.reason = "p99 over limit"
	case float64(r.growth) > math.Max(0.01*due, rate*0.01):
		r.reason = "backlog growing"
	default:
		r.pass = true
	}
	if math.IsInf(r.p99MS, 1) {
		r.p99MS = -1 // JSON-safe marker: p99 not delivered
	}
	if r.pass {
		r.audited = emitted
		r.failed = lost + dups + wrong
	}
	return r, nil
}

func toFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
