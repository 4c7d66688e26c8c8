package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"streamha/internal/element"
)

// probePlan fixes, before a pipeline starts, which element IDs a probe
// measures. Element n is due at t0 + n/rate, so a time window after t0 is
// an ID range known in advance and the arrival hook needs no
// synchronization with the measuring goroutine.
type probePlan struct {
	rate float64
	// maxID bounds the exactly-once bitmap; IDs above it count as wrong.
	maxID uint64
	// lo..hi is the measured window in ID space (hi < lo: none).
	lo, hi uint64
	// payloadAdd is what the chain adds to an element's payload; the sink
	// checks payload == id + payloadAdd for every delivery.
	payloadAdd int64
	// gaps sizes the inter-arrival gap record.
	gaps int
}

// gapMin is the shortest inter-arrival gap the probe records; shorter
// gaps never set a window's longest gap at the rates measured here.
const gapMin = 500 * time.Microsecond

// probe is the sink arrival hook. It runs on the sink's delivery goroutine
// only; everything it fills is preallocated before the pipeline starts so
// it adds no allocations to the measured window. Results are read after
// the sink stops, except the atomics.
type probe struct {
	plan probePlan
	base time.Time // reference instant for the float32 millisecond stamps

	seen    []uint64 // exactly-once bitmap over IDs 1..maxID
	dups    int64
	wrong   int64 // out-of-range IDs and wrong payloads
	arrMS   []float32
	origMS  []float32
	gapEnd  []int64 // ns since base
	gapLen  []int64 // ns
	ngap    int
	lastNS  int64
	first   chan struct{}
	firstAt time.Time

	distinct atomic.Int64 // distinct IDs delivered
	inWindow atomic.Int64 // distinct window IDs delivered
}

func newProbe(plan probePlan, base time.Time) *probe {
	p := &probe{
		plan:  plan,
		base:  base,
		seen:  make([]uint64, plan.maxID/64+1),
		first: make(chan struct{}),
	}
	if plan.hi >= plan.lo {
		n := plan.hi - plan.lo + 1
		p.arrMS = make([]float32, n)
		for i := range p.arrMS {
			p.arrMS[i] = float32(math.NaN())
		}
		p.origMS = make([]float32, n)
	}
	if plan.gaps > 0 {
		p.gapEnd = make([]int64, plan.gaps)
		p.gapLen = make([]int64, plan.gaps)
	}
	return p
}

// arrive is the sink's SetOnArrival hook.
func (p *probe) arrive(e element.Element, at time.Time) {
	ns := int64(at.Sub(p.base))
	if p.lastNS == 0 {
		p.firstAt = at
		close(p.first)
	} else if g := ns - p.lastNS; g >= int64(gapMin) && p.ngap < len(p.gapEnd) {
		p.gapEnd[p.ngap] = ns
		p.gapLen[p.ngap] = g
		p.ngap++
	}
	p.lastNS = ns
	id := e.ID
	if id == 0 || id > p.plan.maxID || e.Payload != int64(id)+p.plan.payloadAdd {
		p.wrong++
		return
	}
	w, bit := id/64, uint64(1)<<(id%64)
	if p.seen[w]&bit != 0 {
		p.dups++
		return
	}
	p.seen[w] |= bit
	p.distinct.Add(1)
	if id >= p.plan.lo && id <= p.plan.hi {
		i := id - p.plan.lo
		p.arrMS[i] = float32(float64(ns) / 1e6)
		p.origMS[i] = float32(float64(e.Origin-p.base.UnixNano()) / 1e6)
		p.inWindow.Add(1)
	}
}

// windowSize is the number of IDs in the measured window.
func (p *probe) windowSize() int64 {
	if p.plan.hi < p.plan.lo {
		return 0
	}
	return int64(p.plan.hi - p.plan.lo + 1)
}

// shedCapMS is how much elapsed time a late cluster.Source tick may owe:
// the source caps it at four ticks and drops the elements owed beyond.
const shedCapMS = 4 * float64(sourceTick) / float64(time.Millisecond)

// schedule returns each window element's due time in ms since base (NaN
// for an element never delivered) and the source's shed time up to it.
// Element n is due at t0 + n/rate on the open-loop schedule, so a late
// tick — a generator stall — counts against every element it delays. When
// a tick comes more than the source's cap late, the elements owed beyond
// the cap are dropped, not delayed; the schedule moves on by the dropped
// time, so shed load lowers the offered share instead of accumulating into
// every later element's delay. t0 is the lower envelope of Origin minus
// the schedule over the window: the source's epoch, net of what it shed
// before the window.
func (p *probe) schedule() (due, shedMS []float64) {
	due = make([]float64, len(p.arrMS))
	shedMS = make([]float64, len(p.arrMS))
	var shed float64
	prev, env := math.NaN(), math.Inf(1)
	for i, a := range p.arrMS {
		shedMS[i] = shed
		if math.IsNaN(float64(a)) {
			due[i] = math.NaN()
			continue
		}
		o := float64(p.origMS[i])
		if !math.IsNaN(prev) && o != prev && o-prev > shedCapMS {
			shed += o - prev - shedCapMS
			shedMS[i] = shed
		}
		prev = o
		due[i] = float64(p.plan.lo+uint64(i))/p.plan.rate*1000 + shed
		env = min(env, o-due[i])
	}
	for i := range due {
		due[i] += env
	}
	return due, shedMS
}

// offered returns the share of the load due over window elements
// [lo, hi) that the source emitted: one minus the shed time over the
// span of their Origin stamps.
func (p *probe) offered(shedMS []float64, lo, hi int) float64 {
	first, last := -1, -1
	for i := lo; i < hi; i++ {
		if !math.IsNaN(float64(p.arrMS[i])) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0
	}
	span := float64(p.origMS[last]) - float64(p.origMS[first])
	if span <= 0 {
		return 1
	}
	return 1 - (shedMS[last]-shedMS[first])/span
}

// delays returns each window element's delay (ms, arrival minus due
// time) in ID order, NaN for an element never delivered, and the shed
// time up to each element (see schedule).
func (p *probe) delays() (delays, shedMS []float64) {
	due, shedMS := p.schedule()
	for i := range due {
		due[i] = float64(p.arrMS[i]) - due[i]
	}
	return due, shedMS
}

// originDelays returns the sorted arrival-minus-Origin delays (the
// program's own delay view) and the sorted Origin-minus-due source lags of
// the delivered window elements, in ms.
func (p *probe) originDelays() (delay, lag []float64) {
	due, _ := p.schedule()
	for i, d := range due {
		if math.IsNaN(d) {
			continue
		}
		o := float64(p.origMS[i])
		delay = append(delay, float64(p.arrMS[i])-o)
		lag = append(lag, o-d)
	}
	sort.Float64s(delay)
	sort.Float64s(lag)
	return delay, lag
}

// sliceStats splits the window into slices of per elements and returns,
// per slice, the p50 and p99 delay and the offered share. Undelivered
// elements count as late as lateMS. A short tail slice is dropped: it
// would weigh as much as a full one in the medians callers take.
func (p *probe) sliceStats(delays, shedMS []float64, per int, lateMS float64) (p50, p99, offered []float64, samples, missing int) {
	for lo := 0; lo < len(delays); lo += per {
		hi := min(lo+per, len(delays))
		if hi-lo < per/2 && len(p50) > 0 {
			break
		}
		xs := make([]float64, 0, hi-lo)
		for _, d := range delays[lo:hi] {
			if math.IsNaN(d) {
				missing++
				d = lateMS
			}
			xs = append(xs, d)
		}
		sort.Float64s(xs)
		samples += len(xs)
		p50 = append(p50, percentile(xs, 50))
		p99 = append(p99, percentile(xs, 99))
		offered = append(offered, p.offered(shedMS, lo, hi))
	}
	return p50, p99, offered, samples, missing
}

// audit counts lost IDs among 1..emitted, duplicate deliveries and wrong
// deliveries (out-of-range IDs or payloads the chain could not produce).
func (p *probe) audit(emitted uint64) (lost, dups, wrong int64) {
	if emitted > p.plan.maxID {
		lost += int64(emitted - p.plan.maxID)
		emitted = p.plan.maxID
	}
	for id := uint64(1); id <= emitted; id++ {
		if p.seen[id/64]&(uint64(1)<<(id%64)) == 0 {
			lost++
		}
	}
	return lost, p.dups, p.wrong
}

// longestGap returns the longest inter-arrival gap (ms) that ended inside
// [fromMS, toMS] (ms since base).
func (p *probe) longestGap(fromMS, toMS float64) float64 {
	best := 0.0
	for i := 0; i < p.ngap; i++ {
		end := float64(p.gapEnd[i]) / 1e6
		if end < fromMS || end > toMS {
			continue
		}
		if g := float64(p.gapLen[i]) / 1e6; g > best {
			best = g
		}
	}
	return best
}
