package main

import (
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/trace"
)

// goodOutcome simulates a small contended trace under saath and wraps
// the result the way a benchmark round does.
func goodOutcome(t *testing.T) outcome {
	t.Helper()
	tr := trace.Fig1Trace()
	s, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := &jobStats{}
	res, err := sim.Run(tr.Clone(), &timedSched{inner: s, st: st, traced: true}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return outcome{
		trace: tr, portRate: fabric.DefaultPortRate, res: res,
		epochs: st.schedCalls, observations: st.schedCalls,
		arrivals: st.arrives, admitted: len(tr.Specs), overCapacity: st.overCapacity,
	}
}

// withResult returns o with a deep copy of its result, so a test can
// corrupt the copy.
func withResult(o outcome) outcome {
	r := *o.res
	r.CoFlows = append([]sim.CoFlowResult(nil), o.res.CoFlows...)
	for i := range r.CoFlows {
		r.CoFlows[i].Flows = append([]sim.FlowResult(nil), r.CoFlows[i].Flows...)
	}
	o.res = &r
	return o
}

func TestChecksPassOnProgramOutput(t *testing.T) {
	if err := goodOutcome(t).check(); err != nil {
		t.Fatalf("check failed on an unmodified result: %v", err)
	}
}

func TestChecksFireOnCorruptedResults(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *outcome)
		want    string
	}{
		{"cct below isolation bound", func(o *outcome) { o.res.CoFlows[0].CCT = 1 }, "below its isolation bound"},
		{"dropped coflow", func(o *outcome) { o.res.CoFlows = o.res.CoFlows[1:] }, "coflows completed"},
		{"duplicated coflow", func(o *outcome) { o.res.CoFlows = append(o.res.CoFlows, o.res.CoFlows[0]) }, "more than once"},
		{"lost bytes", func(o *outcome) { o.res.CoFlows[0].Bytes-- }, "bytes delivered"},
		{"lost flow bytes", func(o *outcome) { o.res.CoFlows[0].Flows[0].Size-- }, "flows with"},
		{"short makespan", func(o *outcome) { o.res.Makespan = 1 }, "makespan"},
		{"missed observation", func(o *outcome) { o.observations-- }, "telemetry observations"},
		{"refused admission", func(o *outcome) { o.admitted-- }, "admitted"},
		{"over-capacity port", func(o *outcome) { o.overCapacity = "epoch 3: egress port 0" }, "over capacity"},
	}
	good := goodOutcome(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := withResult(good)
			tc.corrupt(&o)
			err := o.check()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("check returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestOverCapacityAudit gives two flows leaving one sender port more
// than the line rate between them, and checks the audit names the port,
// and that a schedule within the rate passes.
func TestOverCapacityAudit(t *testing.T) {
	rate := fabric.DefaultPortRate
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: coflow.MB},
		{Src: 0, Dst: 2, Size: coflow.MB},
	}}
	c := coflow.New(spec)
	snap := &sched.Snapshot{Active: []*coflow.CoFlow{c}, Fabric: fabric.New(3, rate)}
	alloc := snap.Allocation()
	for _, f := range c.Flows {
		alloc.Set(f.Idx, rate*0.6)
	}
	if msg := overCapacity(snap, alloc); !strings.Contains(msg, "egress port 0") {
		t.Fatalf("overCapacity = %q, want egress port 0 named", msg)
	}
	for _, f := range c.Flows {
		alloc.Set(f.Idx, rate*0.5)
	}
	if msg := overCapacity(snap, alloc); msg != "" {
		t.Fatalf("overCapacity = %q on a schedule at line rate", msg)
	}
}

// TestRelabelPortsKeepsTheWorkload checks that a run seed permutes port
// labels without changing the coflows, their sizes or the port count,
// and that run seed 0 keeps the generator's labels.
func TestRelabelPortsKeepsTheWorkload(t *testing.T) {
	orig := trace.SynthIncast(1)
	same := relabelPorts(orig.Clone(), 0, 1)
	moved := relabelPorts(orig.Clone(), 5, 1)
	if moved.NumPorts != orig.NumPorts || len(moved.Specs) != len(orig.Specs) {
		t.Fatal("relabelling changed the trace's shape")
	}
	changed := false
	for i, s := range orig.Specs {
		m := moved.Specs[i]
		if m.ID != s.ID || m.Arrival != s.Arrival || m.TotalSize() != s.TotalSize() || len(m.Flows) != len(s.Flows) {
			t.Fatalf("coflow %d changed beyond its port labels", s.ID)
		}
		for j, f := range s.Flows {
			if same.Specs[i].Flows[j] != f {
				t.Fatalf("run seed 0 relabelled coflow %d", s.ID)
			}
			if m.Flows[j].Src != f.Src || m.Flows[j].Dst != f.Dst {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("run seed 5 left every port label unchanged")
	}
	if err := moved.Validate(); err != nil {
		t.Fatal(err)
	}
}
