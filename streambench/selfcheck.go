package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// selfcheckSeconds is the short run length of the self-check.
const selfcheckSeconds = 4

// benchmarkFile is the subset of BENCHMARK.json the self-check compares.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelfcheck runs every workload briefly, untraced and traced, and
// reports every problem found: a metric or unit missing or differing from
// BENCHMARK.json (when run from the repository root), a failed audit, and
// a workload not exercising its layers — steady-hybrid with no
// checkpoint-path work, steady-active with any, failover-hybrid without a
// switchover and rollback per stall, a promotion and a re-arm.
func runSelfcheck(o options) error {
	var errs []error
	fail := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		errs = append(errs, err)
	}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			fail("BENCHMARK.json: %v", err)
		}
		compareSpecs(fail, "end_to_end", endToEnd, bf.EndToEnd)
		compareSpecs(fail, "per_layer", perLayer, bf.PerLayer)
		if len(bf.Workloads) != len(workloads) {
			fail("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
		}
		for _, bw := range bf.Workloads {
			if _, ok := findWorkload(bw.Name); !ok {
				fail("BENCHMARK.json workload %q is not a benchmark workload", bw.Name)
			}
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			ro := o
			ro.workload, ro.seconds, ro.trace = w.name, selfcheckSeconds, traced
			res, meta, err := run(w, ro)
			if err != nil {
				fail("%s trace=%v: %v", w.name, traced, err)
				continue
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.name]
				if !ok || v.Unit != s.unit {
					fail("%s trace=%v: metric %s missing or without unit %q", w.name, traced, s.name, s.unit)
				}
			}
			if len(res.Metrics) != len(specs) {
				fail("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				fail("%s trace=%v: not correct (attempted %d, failed %d, audit %v, wrapper check %q)", w.name, traced, res.Attempted, res.Failed, meta["audit"], meta["wrapper_check"])
			}
			if !traced {
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						fail("%s: end-to-end metric %s is %v, want > 0", w.name, s.name, res.Metrics[s.name].Value)
					}
				}
				continue
			}
			checkLayers(fail, w, res, meta)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

func compareSpecs(fail func(string, ...any), section string, want []metricSpec, got []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	if len(got) != len(want) {
		fail("BENCHMARK.json %s has %d metrics, the benchmark reports %d", section, len(got), len(want))
	}
	for _, g := range got {
		if u := unitOf(want, g.Name); u != g.Unit {
			fail("BENCHMARK.json %s metric %s has unit %q, the benchmark reports %q", section, g.Name, g.Unit, u)
		}
	}
}

// checkLayers verifies that a traced workload exercised the layers it is
// meant to and bypassed the ones it is not.
func checkLayers(fail func(string, ...any), w workload, res *result, meta map[string]any) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	ckptWork := []string{"pe.snapshot_us", "subjob.ckpt_decode_us", "checkpoint.taken_per_s", "transport.ckpt_bytes_per_s"}
	switch {
	case w.name == "steady-active":
		for _, n := range ckptWork {
			if v(n) != 0 {
				fail("steady-active: %s = %v, want 0 (no checkpoint-path work)", n, v(n))
			}
		}
	case w.checkpoints():
		for _, n := range ckptWork {
			if v(n) <= 0 {
				fail("%s: %s = %v, want > 0 (checkpoint-path work)", w.name, n, v(n))
			}
		}
	}
	if !w.failover {
		// A heartbeat that misses under host load switches over without an
		// injected failure; that is measured, not a benchmark fault.
		if fs := v("core.false_switchover_frac"); fs != 0 {
			fmt.Fprintf(os.Stderr, "selfcheck: note: %s had false switchovers (core.false_switchover_frac = %v)\n", w.name, fs)
		}
		return
	}
	f, _ := meta["failures"].(map[string]any)
	stalls, _ := f["stalls"].(int)
	switched, _ := f["switched"].(int)
	rolled, _ := f["rolled_back"].(int)
	promoted, _ := f["promoted"].(bool)
	rearmed, _ := f["rearmed"].(bool)
	if stalls == 0 || switched != stalls || rolled != stalls || !promoted || !rearmed {
		fail("failover-hybrid: %d stalls, %d switched over, %d rolled back, promoted %v, re-armed %v", stalls, switched, rolled, promoted, rearmed)
	}
}
