package main

import (
	"fmt"
	"math"
)

// layerMetrics derives the per-layer metrics of a traced nominal phase.
// base is the untraced baseline phase of the same run; comparing its
// checkpoint counts and bytes with the traced phase checks that the
// timing wrapper left the checkpoint path unchanged (a non-empty string
// describes a mismatch).
func layerMetrics(ph, base *phase, tr *tracer) (map[string]float64, string) {
	m := map[string]float64{}
	secs := ph.proc.wall.Seconds()
	elems := ph.received
	a, b := ph.layers, ph.layerEnd
	smp := ph.smp

	// cluster
	origin, lag := ph.d.probe.originDelays()
	m["cluster.source_offered_frac"] = ph.offered
	m["cluster.source_lag_p99_ms"] = percentile(lag, 99)
	m["cluster.sink_delay_origin_p50_ms"] = percentile(origin, 50)
	m["cluster.sink_delay_origin_p99_ms"] = percentile(origin, 99)
	m["cluster.backlog_max"] = float64(smp.inflightMax)

	// transport
	dataMsgs := float64(b.dataMsgs - a.dataMsgs)
	dataElems := float64(b.dataElems - a.dataElems)
	m["transport.data_msgs_per_elem"] = perElem(dataMsgs, elems)
	m["transport.elems_per_data_msg"] = ratio(dataElems, dataMsgs)
	m["transport.ack_msgs_per_s"] = ratio(float64(b.ackMsgs-a.ackMsgs), secs)
	m["transport.ckpt_bytes_per_s"] = ratio(float64(b.ckptBytes-a.ckptBytes), secs)
	m["transport.hb_msgs_per_s"] = ratio(float64(b.hbMsgs-a.hbMsgs), secs)

	// queue
	dups, gaps := inputDiff(a, b)
	m["queue.in_dup_frac"] = ratio(float64(dups), dataElems)
	m["queue.in_gaps"] = float64(gaps)
	m["queue.backlog_p99"] = percentile(sortedCopy(smp.backlog), 99)
	m["queue.out_retained_p99"] = percentile(sortedCopy(smp.retained), 99)
	failures := len(ph.stalls)
	if ph.crash != nil {
		failures++
	}
	m["queue.replayed_elems_per_failover"] = ratio(float64(b.replayed-a.replayed), float64(failures))

	// pe
	pe := peCounts{
		procNS: b.pe.procNS - a.pe.procNS, procN: b.pe.procN - a.pe.procN,
		snapNS: b.pe.snapNS - a.pe.snapNS, snapN: b.pe.snapN - a.pe.snapN,
		restNS: b.pe.restNS - a.pe.restNS, restN: b.pe.restN - a.pe.restN,
	}
	m["pe.process_ns_per_elem"] = ratio(float64(pe.procNS), float64(pe.procN))
	m["pe.snapshot_us"] = ratio(float64(pe.snapNS)/1e3, float64(pe.snapN))
	m["pe.restore_us"] = ratio(float64(pe.restNS)/1e3, float64(pe.restN))

	// subjob
	decUS, encUS, size, _ := tr.codecReplay()
	m["subjob.ckpt_decode_us"] = decUS
	m["subjob.ckpt_encode_us"] = encUS
	m["subjob.ckpt_bytes"] = size

	// checkpoint
	ck := ckptDiff(a, b)
	m["checkpoint.taken_per_s"] = ratio(float64(ck.taken), secs)
	m["checkpoint.encode_ms_mean"] = ratio(ck.encodeMS, float64(ck.shipped))
	m["checkpoint.ship_ms_mean"] = ratio(ck.shipMS, float64(ck.shipped))
	m["checkpoint.pause_ms_mean"] = ratio(ck.pauseMS, float64(ck.taken))
	m["checkpoint.standby_applied_frac"] = ratio(float64(ck.applied), float64(ck.applied+ck.skipped))
	m["checkpoint.pending_acks_max"] = float64(smp.pendingMax)

	// core and detect
	ev := ph.events
	m["core.detect_ms"] = median(ev.detectMS)
	m["core.switch_ms"] = median(ev.switchMS)
	m["core.reprocess_ms"] = median(ev.reprocMS)
	m["core.rollback_ms"] = median(ev.rollbackMS)
	m["core.rollback_state_units"] = median(ev.rollbackUnits)
	m["core.promote_ms"] = ev.promoteMS
	m["core.false_switchover_frac"] = ratio(float64(ev.falseSwitches), float64(ev.switches))
	var misses []float64
	for _, s := range ph.stalls {
		misses = append(misses, float64(s.misses))
	}
	m["detect.misses_per_stall"] = mean(misses)

	// sched: placement resolves through the log inside NewPipeline, so its
	// wall time per committed placement is the commit latency.
	d := ph.d
	m["sched.placements"] = float64(d.placements)
	m["sched.place_ms"] = ratio(ms(d.pipelineBuilt.Sub(d.clusterBuilt)), float64(d.placements))
	m["sched.rearm_ms"] = ev.rearmMS

	// go runtime
	m["go.gc_cpu_frac"] = ph.proc.gcFrac
	m["go.alloc_objects_per_elem"] = perElem(float64(ph.proc.mallocs), elems)
	m["go.goroutines_max"] = float64(smp.goroutinesMax)

	m["audit.fail_frac"] = ratio(float64(ph.lost+ph.dups+ph.wrong), float64(ph.totalEmitted))

	// Tracing overhead and the share of CPU the measured layers explain:
	// PE calls (Process extrapolated from its sample), checkpoint encode,
	// standby decode (replayed decode time per applied checkpoint) and GC.
	cpuUS := ph.proc.cpu.Seconds() * 1e6
	cpuPer := perElem(cpuUS, elems)
	if base != nil {
		m["trace.overhead_cpu_us_per_elem"] = cpuPer - perElem(base.proc.cpu.Seconds()*1e6, base.received)
	}
	attributedUS := float64(pe.procNS*processSample+pe.snapNS+pe.restNS)/1e3 +
		ck.encodeMS*1e3 + decUS*float64(ck.applied) + ph.proc.gcFrac*cpuUS
	m["trace.attributed_frac"] = ratio(attributedUS, cpuUS)
	m["trace.unattributed_cpu_us_per_elem"] = perElem(cpuUS-attributedUS, elems)

	return m, wrapperCheck(base, ph)
}

// wrapperCheck compares the checkpoint work of the untraced baseline with
// the traced phase: the same kinds of checkpoint and, without injected
// failures, the same rate and size. Rates and sizes depend on timing and
// queue contents, so they must agree within 15% and 5%; failures change
// both (checkpoints carry the output retained while a copy is down), so a
// failover workload compares kinds only.
func wrapperCheck(base, ph *phase) string {
	if base == nil {
		return ""
	}
	u := ckptDiff(base.layers, base.layerEnd)
	t := ckptDiff(ph.layers, ph.layerEnd)
	if (u.taken == 0) != (t.taken == 0) || (u.fulls == u.shipped) != (t.fulls == t.shipped) {
		return fmt.Sprintf("checkpoint kinds differ: untraced %d taken/%d full/%d shipped, traced %d/%d/%d",
			u.taken, u.fulls, u.shipped, t.taken, t.fulls, t.shipped)
	}
	if u.taken == 0 || len(ph.stalls) > 0 || ph.crash != nil {
		return ""
	}
	uRate := float64(u.taken) / base.proc.wall.Seconds()
	tRate := float64(t.taken) / ph.proc.wall.Seconds()
	if math.Abs(tRate/uRate-1) > 0.15 {
		return fmt.Sprintf("checkpoint rate differs: untraced %.1f/s, traced %.1f/s", uRate, tRate)
	}
	uSize := ratio(float64(u.bytesFull), float64(u.fulls))
	tSize := ratio(float64(t.bytesFull), float64(t.fulls))
	if uSize > 0 && math.Abs(tSize/uSize-1) > 0.05 {
		return fmt.Sprintf("checkpoint size differs: untraced %.0f B, traced %.0f B", uSize, tSize)
	}
	return ""
}
