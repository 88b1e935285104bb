package main

import (
	"fmt"
	"math/rand"

	"saath/internal/coflow"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// workload is one input set the benchmark runs: a synthetic trace
// family, the grid seeds drawn from it, the policies compared, and the
// study shape (baseline, telemetry, derived tables) it is executed as.
type workload struct {
	name string
	// testbed runs the jobs through the real coordinator instead of
	// the simulator engine.
	testbed bool
	// source names the trace in the study grid; synth is the program's
	// generator for it.
	source string
	synth  func(seed int64) *trace.Trace
	// gridSeeds maps the trace seed to the synthetic draws the study
	// pools over.
	gridSeeds  func(traceSeed int64) []int64
	schedulers []string
	baseline   string
	telemetry  bool
	derived    []study.Derived
}

// workloads lists every workload in the order `--workload all` runs
// them. Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		name:       "fb-lcof",
		source:     "fb",
		synth:      trace.SynthFB,
		gridSeeds:  oneSeed,
		schedulers: []string{"aalo", "saath"},
		baseline:   "aalo",
		derived: []study.Derived{
			study.DerivedCCT("fb-lcof — per-scheduler CCT"),
			study.DerivedSpeedup("fb-lcof — per-coflow speedup over aalo", ""),
			study.DerivedCCTCDF("fb-lcof", 25),
		},
	},
	{
		name:       "fb-maxmin",
		source:     "fb",
		synth:      trace.SynthFB,
		gridSeeds:  oneSeed,
		schedulers: []string{"varys", "uc-tcp"},
		derived: []study.Derived{
			study.DerivedCCT("fb-maxmin — per-scheduler CCT"),
			study.DerivedCCTCDF("fb-maxmin", 25),
		},
	},
	{
		// The catalog study of the same name, with the benchmark's
		// traces handed in (seeds 2t-1 and 2t; t=1 gives the catalog's
		// seeds 1 and 2).
		name:       "incast-telemetry",
		source:     "incast",
		synth:      trace.SynthIncast,
		gridSeeds:  func(t int64) []int64 { return []int64{2*t - 1, 2 * t} },
		schedulers: []string{"aalo", "saath"},
		baseline:   "aalo",
		telemetry:  true,
		derived: []study.Derived{
			study.DerivedCCT("incast-telemetry — per-scheduler CCT"),
			study.DerivedSpeedup("incast-telemetry — per-coflow speedup over aalo", ""),
			study.DerivedTelemetry("incast-telemetry — telemetry (per-interval)"),
		},
	},
	{
		name:       "testbed-incast",
		testbed:    true,
		source:     "incast",
		synth:      trace.SynthIncast,
		gridSeeds:  oneSeed,
		schedulers: []string{"saath", "aalo"},
		baseline:   "aalo",
		derived: []study.Derived{
			study.DerivedCCT("testbed-incast — per-scheduler CCT"),
			study.DerivedSpeedup("testbed-incast — per-coflow speedup over aalo", ""),
		},
	},
}

func oneSeed(t int64) []int64 { return []int64{t} }

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// inputs synthesizes the workload's traces: one per grid seed, drawn
// by the program's generator from the trace seed and then relabelled
// by the run seed. Keys are grid seeds.
func (w *workload) inputs(traceSeed, runSeed int64) map[int64]*trace.Trace {
	out := make(map[int64]*trace.Trace)
	for _, gs := range w.gridSeeds(traceSeed) {
		out[gs] = relabelPorts(w.synth(gs), runSeed, gs)
	}
	return out
}

// relabelPorts permutes the trace's port numbers with a permutation
// drawn from the run seed; run seed 0 keeps the generator's labels.
// Ports are identical (one fabric, one line rate), so a relabelled
// trace is the same physical workload: policies that decide by port
// number (Aalo visits sender ports in index order) see a different
// input, while the work, and so the run time, stays comparable across
// seeds. A fresh synthetic draw per run would not: it moves mean CCT
// by ±30% and run time by ±50% between draws.
func relabelPorts(tr *trace.Trace, runSeed, gridSeed int64) *trace.Trace {
	if runSeed == 0 {
		return tr
	}
	perm := rand.New(rand.NewSource(sweep.DeriveSeed(runSeed, fmt.Sprintf("ports|%d", gridSeed)))).Perm(tr.NumPorts)
	for _, s := range tr.Specs {
		for i := range s.Flows {
			f := &s.Flows[i]
			f.Src, f.Dst = coflow.PortID(perm[f.Src]), coflow.PortID(perm[f.Dst])
		}
	}
	return tr
}

// buildStudy declares the workload as a study over the given traces.
// Each job receives a private clone of the trace for its grid seed.
func (w *workload) buildStudy(traces map[int64]*trace.Trace, traceSeed int64) (*study.Study, error) {
	src := sweep.TraceSource{Name: w.source, Gen: func(seed int64) *trace.Trace {
		return traces[seed].Clone()
	}}
	opts := []study.Option{
		study.WithTraces(src),
		study.WithSchedulers(w.schedulers...),
		study.WithSeeds(w.gridSeeds(traceSeed)...),
		study.WithDerived(w.derived...),
	}
	if w.baseline != "" {
		opts = append(opts, study.WithBaseline(w.baseline))
	}
	if w.telemetry {
		opts = append(opts, study.WithTelemetry(telemetry.Spec{Enabled: true}))
	}
	return study.New(w.name, opts...)
}
