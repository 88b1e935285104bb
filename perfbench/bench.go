package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"
)

const (
	// setupReps is how many extra times a run sets the workload up
	// (trace synthesis and study build) before measuring, so that
	// setup_s is a median of enough samples to be steady.
	setupReps = 20
	// rssEvery is how often a round samples the resident set.
	rssEvery = 10 * time.Millisecond
)

type bench struct {
	w   *workload
	o   options
	reg *timedRegistry // testbed workloads only
}

func newBench(w *workload, o options) *bench {
	b := &bench{w: w, o: o}
	if w.testbed {
		b.reg = newTimedRegistry(workers(), w.schedulers)
	}
	return b
}

// round is one complete execution of the workload: set-up, every job,
// aggregation and rendering, then the benchmark's checks.
type round struct {
	wall time.Duration // set-up through rendering

	synth, build         time.Duration // benchmark-side set-up
	aggregate, render    time.Duration
	coflows, flows       int
	jobs                 []sweep.JobResult
	stats                []*jobStats
	hash                 string
	failed               int
	failures             []string
	avgCCT               float64
	speedups             []float64
	jobSetup, jobRunTime time.Duration
	peakRSS              int64 // bytes
}

// setup synthesizes the workload's traces and declares its study.
func (b *bench) setup() (map[int64]*trace.Trace, *study.Study, time.Duration, time.Duration, error) {
	start := time.Now()
	traces := b.w.inputs(b.o.traceSeed, b.o.seed)
	synth := time.Since(start)
	start = time.Now()
	st, err := b.w.buildStudy(traces, b.o.traceSeed)
	return traces, st, synth, time.Since(start), err
}

// round runs the workload once. Each round starts from a collected
// heap returned to the OS, so rounds are alike and the resident set
// sampled during the round is that round's own peak.
func (b *bench) round(traced bool) (*round, error) {
	debug.FreeOSMemory()
	rss := startRSSSampler()
	abort := func(err error) (*round, error) {
		rss.stop()
		return nil, err
	}
	start := time.Now()
	traces, st, synth, build, err := b.setup()
	if err != nil {
		return abort(err)
	}
	r := &runner{testbed: b.w.testbed, parallel: workers(), traced: traced, slots: b.reg}
	if b.reg != nil {
		b.reg.traced = traced
	}
	res, err := st.Run(context.Background(), r)
	if err != nil {
		return abort(err)
	}
	renderStart := time.Now()
	var out bytes.Buffer
	tables, err := res.Tables()
	if err != nil {
		return abort(err)
	}
	for _, t := range tables {
		if err := t.Render(&out); err != nil {
			return abort(err)
		}
	}
	end := time.Now()
	peak, err := rss.stop()
	if err != nil {
		return nil, err
	}
	rd := &round{
		wall: end.Sub(start), peakRSS: peak,
		synth: synth, build: build, aggregate: r.aggregate, render: end.Sub(renderStart),
		jobs: res.Sweep().Jobs, stats: r.stats,
	}
	for _, tr := range traces {
		rd.coflows += len(tr.Specs)
		for _, s := range tr.Specs {
			rd.flows += len(s.Flows)
		}
	}
	rd.check(b.w, traces, out.Bytes())
	return rd, nil
}

// check runs the output checks on every job, counts failures, and
// hashes the round's simulated outputs: the rendered tables and every
// coflow's completion, in grid order.
func (rd *round) check(w *workload, traces map[int64]*trace.Trace, tables []byte) {
	h := sha256.New()
	h.Write(tables)
	var cctSum float64
	var n int
	type jobKey struct {
		seed  int64
		sched string
	}
	ccts := map[jobKey]map[coflow.CoFlowID]coflow.Time{}
	var seeds []int64
	for i, jr := range rd.jobs {
		st := rd.stats[i]
		rd.jobSetup += st.setup
		rd.jobRunTime += st.run
		if jr.Err != nil {
			rd.fail(jr, jr.Err)
			continue
		}
		o := outcome{
			trace: traces[jr.Job.Seed], portRate: jr.Job.Config.PortRate, res: jr.Res,
			epochs: st.schedCalls, observations: -1, arrivals: st.arrives, admitted: -1,
			overCapacity: st.overCapacity,
		}
		if o.portRate <= 0 {
			o.portRate = fabric.DefaultPortRate
		}
		if jr.Job.Telemetry.Enabled {
			o.observations = st.observeCalls
		}
		if w.testbed {
			o.admitted = int(st.runtime.Admitted)
		}
		if err := o.check(); err != nil {
			rd.fail(jr, err)
		}
		fmt.Fprintf(h, "%s|%d|%s makespan=%d\n", jr.Job.Trace, jr.Job.Seed, jr.Job.Scheduler, jr.Res.Makespan)
		for _, c := range jr.Res.CoFlows {
			fmt.Fprintf(h, "%d %d %d %d\n", c.ID, c.Arrival, c.DoneAt, c.Bytes)
			cctSum += c.CCT.Seconds()
			n++
		}
		ccts[jobKey{jr.Job.Seed, jr.Job.Scheduler}] = jr.Res.CCTByID()
		if !slices.Contains(seeds, jr.Job.Seed) {
			seeds = append(seeds, jr.Job.Seed)
		}
	}
	rd.hash = fmt.Sprintf("%x", h.Sum(nil))
	if n > 0 {
		rd.avgCCT = cctSum / float64(n)
	}
	if w.baseline != "" {
		for _, seed := range seeds {
			base, target := ccts[jobKey{seed, w.baseline}], ccts[jobKey{seed, "saath"}]
			if base != nil && target != nil {
				rd.speedups = append(rd.speedups, stats.Speedups(base, target)...)
			}
		}
	}
}

func (rd *round) fail(jr sweep.JobResult, err error) {
	rd.failed++
	rd.failures = append(rd.failures, fmt.Sprintf("%s: %v", jr.Job.Key(), err))
}

// measure runs whole rounds of the workload until the next one would
// end past the run's seconds (at least one), and reports the metrics.
// A traced run spends the first half of its seconds on untraced
// rounds, the reference for the tracing overhead, and the second half
// traced.
func (b *bench) measure() (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, _, synth, build, err := b.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (synth + build).Seconds())
	}
	budget := time.Duration(b.o.seconds * float64(time.Second))
	start := time.Now()
	// repeat appends rounds while the next is expected to end by the
	// deadline, and always at least one.
	repeat := func(rs []*round, traced bool, deadline time.Duration) ([]*round, error) {
		for len(rs) == 0 || time.Since(start)+medianWall(rs) <= deadline {
			rd, err := b.round(traced)
			if err != nil {
				return nil, err
			}
			rs = append(rs, rd)
		}
		return rs, nil
	}
	if !b.o.traced {
		rounds, err := repeat(nil, false, budget)
		if err != nil {
			return nil, err
		}
		res := b.summarize(rounds)
		b.endToEnd(res, rounds, setups)
		return res, nil
	}

	untraced, err := repeat(nil, false, budget/2)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := repeat(nil, true, budget)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	cpu, total, err := attributeCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	res := b.summarize(append(untraced, traced...))
	b.perLayer(res, traced, medianWall(untraced), cpu, total, &mem0, &mem1)
	return res, nil
}

func medianWall(rs []*round) time.Duration {
	walls := make([]float64, len(rs))
	for i, r := range rs {
		walls[i] = r.wall.Seconds()
	}
	return time.Duration(stats.Median(walls) * float64(time.Second))
}

// summarize counts attempted and failed jobs over every round and
// reports check failures and the output hash, which every round must
// reproduce.
func (b *bench) summarize(rounds []*round) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, rd := range rounds {
		res.Attempted += len(rd.jobs)
		res.Failed += rd.failed
		for _, f := range rd.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		if rd.hash != rounds[0].hash {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: output hash differs between rounds: %s vs %s\n", rd.hash, rounds[0].hash)
		}
	}
	if res.Failed == res.Attempted {
		res.Correct = false
	}
	first := rounds[0]
	fmt.Fprintf(os.Stderr, "%s: %d rounds, output sha256 %s\n", b.w.name, len(rounds), first.hash)
	if len(first.speedups) > 0 {
		fmt.Fprintf(os.Stderr, "%s: saath over %s per-coflow speedup %s\n", b.w.name, b.w.baseline, stats.Summarize(first.speedups))
	}
	return res
}

// endToEnd reports the end-to-end metrics: medians over the run's
// rounds, except sim_avg_cct_s, which every round reproduces.
func (b *bench) endToEnd(res *result, rounds []*round, setups []float64) {
	var jobSetups, peaks, epochRates, schedMeans []float64
	for _, rd := range rounds {
		setups = append(setups, (rd.synth + rd.build).Seconds())
		jobSetups = append(jobSetups, rd.jobSetup.Seconds())
		peaks = append(peaks, float64(rd.peakRSS)/(1<<20))
		var calls int
		var schedTime time.Duration
		for _, st := range rd.stats {
			calls += st.schedCalls
			schedTime += st.schedTime
		}
		epochRates = append(epochRates, float64(calls)/rd.jobRunTime.Seconds())
		schedMeans = append(schedMeans, schedTime.Seconds()*1e6/float64(calls))
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("wall_s", "s", medianWall(rounds).Seconds())
	set("setup_s", "s", stats.Median(setups)+stats.Median(jobSetups))
	set("epochs_per_s", "1/s", stats.Median(epochRates))
	set("peak_rss_mb", "MB", stats.Median(peaks))
	set("sched_mean_us", "us", stats.Median(schedMeans))
	set("sim_avg_cct_s", "sim_s", rounds[0].avgCCT)
}

// perLayer reports the traced rounds' per-layer metrics, as means per
// round. untracedWall is the median untraced round of the same run.
func (b *bench) perLayer(res *result, traced []*round, untracedWall time.Duration, cpu map[string]float64, cpuTotal float64, mem0, mem1 *runtime.MemStats) {
	n := float64(len(traced))
	var (
		synth, build, aggregate, render                      time.Duration
		coflows, flows                                       int
		schedTime, arriveDepart, observe, simRun, testbedRun time.Duration
		schedCalls, observations, simEpochs, tbRounds        int
		simSched, tbSched                                    time.Duration
		samples                                              []float64
		perPolicy                                            = map[string][2]float64{}
	)
	for _, rd := range traced {
		synth += rd.synth
		build += rd.build
		aggregate += rd.aggregate
		render += rd.render
		coflows += rd.coflows
		flows += rd.flows
		for i, st := range rd.stats {
			inSched := st.schedTime + st.arriveDepart
			schedTime += st.schedTime
			schedCalls += st.schedCalls
			arriveDepart += st.arriveDepart
			observe += st.observeTime
			observations += st.observeCalls
			if b.w.testbed {
				testbedRun += st.run
				tbSched += inSched
				tbRounds += st.schedCalls
			} else {
				simRun += st.run
				simSched += inSched + st.observeTime
				simEpochs += st.schedCalls
			}
			for _, d := range st.samples {
				samples = append(samples, float64(d.Nanoseconds())/1e3)
			}
			p := perPolicy[rd.jobs[i].Job.Scheduler]
			perPolicy[rd.jobs[i].Job.Scheduler] = [2]float64{p[0] + st.schedTime.Seconds(), p[1] + float64(st.schedCalls)}
		}
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	perRound := func(d time.Duration) float64 { return d.Seconds() / n }
	perCall := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return d.Seconds() * 1e6 / float64(calls)
	}
	pct := func(p float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		return stats.Percentile(samples, p)
	}

	set("trace.synth_s", "s", perRound(synth))
	set("trace.coflows", "count", float64(coflows)/n)
	set("trace.flows", "count", float64(flows)/n)
	set("study.build_s", "s", perRound(build))
	set("study.aggregate_s", "s", perRound(aggregate))
	set("study.render_s", "s", perRound(render))
	set("sched.schedule_s", "s", perRound(schedTime))
	set("sched.schedule_calls", "count", float64(schedCalls)/n)
	set("sched.schedule_p90_us", "us", pct(90))
	set("sched.schedule_p99_us", "us", pct(99))
	set("sched.arrive_depart_s", "s", perRound(arriveDepart))
	for _, name := range []string{"saath", "aalo", "varys", "uc-tcp"} {
		v := 0.0
		if p := perPolicy[name]; p[1] > 0 {
			v = p[0] * 1e6 / p[1]
		}
		set("sched."+name+".schedule_us", "us", v)
	}
	set("sched.contention_cpu_s", "s", cpu["contention"]/n)
	set("core.cpu_s", "s", cpu["core"]/n)
	set("fabric.cpu_s", "s", cpu["fabric"]/n)
	set("sim.run_s", "s", perRound(simRun))
	set("sim.self_s", "s", perRound(simRun-simSched))
	set("sim.epochs", "count", float64(simEpochs)/n)
	set("sim.self_us_per_epoch", "us", perCall(simRun-simSched, simEpochs))
	set("sim.audit_cpu_s", "s", cpu["audit"]/n)
	set("telemetry.observe_s", "s", perRound(observe))
	set("telemetry.observations", "count", float64(observations)/n)
	set("telemetry.observe_us", "us", perCall(observe, observations))
	set("testbed.job_s", "s", perRound(testbedRun))
	set("runtime.self_s", "s", perRound(testbedRun-tbSched))
	set("runtime.rounds", "count", float64(tbRounds)/n)
	set("runtime.self_us_per_round", "us", perCall(testbedRun-tbSched, tbRounds))
	set("go.alloc_mb", "MB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/n)
	set("go.gc_cycles", "count", float64(mem1.NumGC-mem0.NumGC)/n)
	set("go.gc_pause_ms", "ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6/n)
	set("bench.trace_overhead_s", "s", (medianWall(traced) - untracedWall).Seconds())

	fmt.Fprintf(os.Stderr, "%s: traced CPU %.2fs over %d rounds:", b.w.name, cpuTotal, len(traced))
	for _, k := range []string{"core", "fabric", "contention", "audit"} {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", k, 100*cpu[k]/max(cpuTotal, 1e-9))
	}
	fmt.Fprintln(os.Stderr)
}

type rssSampler struct {
	stopc chan struct{}
	done  chan rssPeak
}

type rssPeak struct {
	bytes int64
	err   error
}

// startRSSSampler reads the resident set every rssEvery until stop.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan rssPeak, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var peak rssPeak
		for {
			b, err := residentBytes()
			if err != nil {
				s.done <- rssPeak{err: err}
				return
			}
			peak.bytes = max(peak.bytes, b)
			select {
			case <-s.stopc:
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak resident set in bytes.
func (s *rssSampler) stop() (int64, error) {
	close(s.stopc)
	p := <-s.done
	return p.bytes, p.err
}

func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("reading resident set: %w", err)
	}
	return resident * int64(os.Getpagesize()), nil
}
