package main

import (
	"errors"
	"fmt"
	"math"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/trace"
)

// outcome is one finished job as the checks see it: the benchmark's
// own copy of the job's input trace next to what the program returned
// and what the decorators counted.
type outcome struct {
	trace    *trace.Trace // the input the benchmark handed the job
	portRate coflow.Rate
	res      *sim.Result

	epochs int // Schedule calls the decorator saw
	// observations is the number of telemetry Observe calls, or -1
	// when the job ran without a probe.
	observations int
	// arrivals and admitted count coflows handed to the policy (Arrive
	// calls) and those the coordinator admitted (testbed only; -1 for
	// simulator jobs).
	arrivals, admitted int
	overCapacity       string
}

// check verifies a job's result from the input trace alone; it shares
// no code with the schedulers or the engine. It returns every failed
// check, joined.
func (o outcome) check() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	specs := make(map[coflow.CoFlowID]*coflow.Spec, len(o.trace.Specs))
	for _, s := range o.trace.Specs {
		specs[s.ID] = s
	}
	rate := float64(o.portRate)
	seen := make(map[coflow.CoFlowID]bool, len(specs))
	for _, c := range o.res.CoFlows {
		s, ok := specs[c.ID]
		switch {
		case !ok:
			fail("coflow %d completed but is not in the trace", c.ID)
			continue
		case seen[c.ID]:
			fail("coflow %d completed more than once", c.ID)
			continue
		}
		seen[c.ID] = true
		if want := s.TotalSize(); c.Bytes != want {
			fail("coflow %d: %d bytes delivered, trace has %d", c.ID, c.Bytes, want)
		}
		if c.Flows != nil {
			var sum coflow.Bytes
			for _, f := range c.Flows {
				sum += f.Size
			}
			if len(c.Flows) != len(s.Flows) || sum != s.TotalSize() {
				fail("coflow %d: %d flows with %d bytes completed, trace has %d flows with %d bytes",
					c.ID, len(c.Flows), sum, len(s.Flows), s.TotalSize())
			}
		}
		// Γ in microseconds; CCTs are whole microseconds rounded up.
		if gamma := isolationBound(s) / rate * 1e6; float64(c.CCT) < math.Floor(gamma) {
			fail("coflow %d: CCT %dµs below its isolation bound Γ=%.0fµs", c.ID, c.CCT, gamma)
		}
	}
	if len(seen) != len(specs) {
		fail("%d of %d coflows completed", len(seen), len(specs))
	}
	if lb := makespanBound(o.trace, rate); float64(o.res.Makespan) < math.Floor(lb) {
		fail("makespan %dµs below the busiest port's bound %.0fµs", o.res.Makespan, lb)
	}
	if o.observations >= 0 && (o.observations != o.epochs || o.epochs != o.res.Intervals) {
		fail("%d telemetry observations for %d schedule epochs (%d intervals reported)", o.observations, o.epochs, o.res.Intervals)
	}
	if o.admitted >= 0 && (o.admitted != len(specs) || o.arrivals != len(specs)) {
		fail("%d coflows offered, %d admitted, %d handed to the policy", len(specs), o.admitted, o.arrivals)
	}
	if o.overCapacity != "" {
		fail("port over capacity at %s", o.overCapacity)
	}
	return errors.Join(errs...)
}

// isolationBound is the bytes through the coflow's busiest sender or
// receiver port: divided by the line rate it is the coflow's CCT on an
// otherwise idle fabric, a lower bound on any schedule.
func isolationBound(s *coflow.Spec) float64 {
	egress := map[coflow.PortID]float64{}
	ingress := map[coflow.PortID]float64{}
	for _, f := range s.Flows {
		egress[f.Src] += float64(f.Size)
		ingress[f.Dst] += float64(f.Size)
	}
	var worst float64
	for _, b := range egress {
		worst = max(worst, b)
	}
	for _, b := range ingress {
		worst = max(worst, b)
	}
	return worst
}

// makespanBound is, in microseconds, the latest time any port could
// finish: its first coflow's arrival plus all its bytes at line rate.
func makespanBound(tr *trace.Trace, rate float64) float64 {
	type port struct {
		first coflow.Time
		bytes float64
	}
	egress := make([]port, tr.NumPorts)
	ingress := make([]port, tr.NumPorts)
	for i := range egress {
		egress[i].first, ingress[i].first = math.MaxInt64, math.MaxInt64
	}
	for _, s := range tr.Specs {
		for _, f := range s.Flows {
			for _, p := range []*port{&egress[f.Src], &ingress[f.Dst]} {
				p.first = min(p.first, s.Arrival)
				p.bytes += float64(f.Size)
			}
		}
	}
	var worst float64
	for _, p := range append(egress, ingress...) {
		if p.bytes > 0 {
			worst = max(worst, float64(p.first)+p.bytes/rate*1e6)
		}
	}
	return worst
}

// capacitySlack absorbs the float residue of summing a port's rates.
const capacitySlack = 1e-9

// overCapacity sums one schedule's rates per sender and receiver port
// over the snapshot's flows and describes the first port whose total
// exceeds the line rate ("" when none does).
func overCapacity(snap *sched.Snapshot, alloc *sched.RateVec) string {
	if alloc == nil {
		return ""
	}
	np := snap.Fabric.NumPorts()
	limit := float64(snap.Fabric.PortRate()) * (1 + capacitySlack)
	egress := make([]float64, np)
	ingress := make([]float64, np)
	for _, c := range snap.Active {
		for _, f := range c.Flows {
			if r, ok := alloc.Get(f.Idx); ok {
				egress[f.Src] += float64(r)
				ingress[f.Dst] += float64(r)
			}
		}
	}
	for p := 0; p < np; p++ {
		if egress[p] > limit {
			return fmt.Sprintf("egress port %d carries %.0f B/s, line rate %.0f B/s", p, egress[p], float64(snap.Fabric.PortRate()))
		}
		if ingress[p] > limit {
			return fmt.Sprintf("ingress port %d carries %.0f B/s, line rate %.0f B/s", p, ingress[p], float64(snap.Fabric.PortRate()))
		}
	}
	return ""
}
