package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/testbed"
)

// jobStats is what the benchmark's decorators record for one job. It
// is written only by the worker goroutine running the job and read
// after the study run returns.
type jobStats struct {
	setup time.Duration // scheduler/engine or coordinator+agent construction
	run   time.Duration // Engine.Run, or the whole RunTestbedJob call

	schedCalls   int
	schedTime    time.Duration
	samples      []time.Duration // per-call Schedule times, traced rounds only
	arrives      int
	arriveDepart time.Duration

	observeCalls int
	observeTime  time.Duration

	// overCapacity describes the first interval whose schedule gave a
	// port more than its line rate (traced rounds only).
	overCapacity string

	created, firstSchedule time.Time
	runtime                obs.RuntimeRecord // testbed jobs only
}

// timedSched wraps a policy with the benchmark's own clock. Its timed
// regions hold only the inner call; the capacity audit of traced
// rounds runs outside them.
type timedSched struct {
	inner  sched.Scheduler
	st     *jobStats
	traced bool
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) Arrive(c *coflow.CoFlow, now coflow.Time) {
	start := time.Now()
	t.inner.Arrive(c, now)
	t.st.arriveDepart += time.Since(start)
	t.st.arrives++
}

func (t *timedSched) Depart(c *coflow.CoFlow, now coflow.Time) {
	start := time.Now()
	t.inner.Depart(c, now)
	t.st.arriveDepart += time.Since(start)
}

func (t *timedSched) Schedule(snap *sched.Snapshot) *sched.RateVec {
	start := time.Now()
	alloc := t.inner.Schedule(snap)
	d := time.Since(start)
	if t.st.schedCalls == 0 {
		t.st.firstSchedule = start
	}
	t.st.schedCalls++
	t.st.schedTime += d
	if t.traced {
		t.st.samples = append(t.st.samples, d)
		if t.st.overCapacity == "" {
			if msg := overCapacity(snap, alloc); msg != "" {
				t.st.overCapacity = fmt.Sprintf("epoch %d: %s", t.st.schedCalls, msg)
			}
		}
	}
	return alloc
}

// timedProbe times the telemetry layer's per-interval observation.
type timedProbe struct {
	inner telemetry.Probe
	st    *jobStats
}

func (p *timedProbe) Observe(iv *telemetry.Interval) {
	start := time.Now()
	p.inner.Observe(iv)
	p.st.observeTime += time.Since(start)
	p.st.observeCalls++
}

// runner executes a study's jobs on a bounded worker pool with the
// benchmark's decorators in place. It implements study.Runner, so the
// study layer (grid expansion, aggregation, derived tables) is the
// program's own; only job execution is the benchmark's, because the
// program's pools build schedulers and probes where no decorator can
// reach them.
type runner struct {
	testbed  bool
	parallel int
	traced   bool
	slots    *timedRegistry // testbed only

	stats     []*jobStats   // by job index
	aggregate time.Duration // time inside the study's collectors
}

// Run implements study.Runner with sweep.Run's delivery contract:
// results in grid order, collectors fed one job at a time.
func (r *runner) Run(ctx context.Context, jobs []sweep.Job, collectors []sweep.Collector) (*sweep.Result, error) {
	start := time.Now()
	out := make([]sweep.JobResult, len(jobs))
	r.stats = make([]*jobStats, len(jobs))
	var (
		wg sync.WaitGroup
		mu sync.Mutex // serializes collectors and r.aggregate
	)
	feed := make(chan int)
	for w := 0; w < min(r.parallel, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				st := &jobStats{}
				jr := r.runOne(w, jobs[i], st)
				out[i], r.stats[i] = jr, st
				mu.Lock()
				t := time.Now()
				for _, c := range collectors {
					c.Add(jr)
				}
				r.aggregate += time.Since(t)
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &sweep.Result{Jobs: out, Elapsed: time.Since(start)}, nil
}

func (r *runner) runOne(worker int, j sweep.Job, st *jobStats) sweep.JobResult {
	start := time.Now()
	var jr sweep.JobResult
	if r.testbed {
		jr = r.runTestbed(worker, j, st)
	} else {
		jr = r.runSim(j, st)
	}
	jr.Elapsed = time.Since(start)
	return jr
}

// runSim mirrors the program's per-job sequence (scheduler, telemetry
// suite with its job-derived seed, engine in the configured mode, the
// job's private trace) with the decorators attached.
func (r *runner) runSim(j sweep.Job, st *jobStats) sweep.JobResult {
	jr := sweep.JobResult{Job: j}
	start := time.Now()
	if j.Config.Dynamics != nil || j.Config.Pipelining != nil {
		jr.Err = fmt.Errorf("job %s: cluster dynamics and pipelining are not benchmarked", j.Key())
		return jr
	}
	s, err := sched.New(j.Scheduler, j.Params)
	if err != nil {
		jr.Err = fmt.Errorf("job %s: %w", j.Key(), err)
		return jr
	}
	cfg := j.Config
	var suite *telemetry.Suite
	if j.Telemetry.Enabled {
		spec := j.Telemetry
		if spec.Seed == 0 {
			spec.Seed = sweep.DeriveSeed(j.Seed, j.Key()+"|telemetry")
		}
		suite = telemetry.NewSuite(spec)
		cfg = cfg.WithProbe(&timedProbe{inner: suite, st: st})
	}
	eng, err := sim.New(cfg)
	if err != nil {
		jr.Err = fmt.Errorf("job %s: %w", j.Key(), err)
		return jr
	}
	tr := j.Gen()
	st.setup = time.Since(start)

	runStart := time.Now()
	res, err := eng.Run(tr, &timedSched{inner: s, st: st, traced: r.traced})
	st.run = time.Since(runStart)
	if err != nil {
		jr.Err = fmt.Errorf("job %s: %w", j.Key(), err)
		return jr
	}
	jr.Res = res
	if suite != nil {
		jr.Metrics = suite.Metrics()
	}
	return jr
}

// runTestbed runs the job through testbed.RunJob under a per-worker
// alias of its policy, so the decorated scheduler the coordinator
// builds records into this job's stats.
func (r *runner) runTestbed(worker int, j sweep.Job, st *jobStats) sweep.JobResult {
	r.slots.stats[worker] = st
	alias := j
	alias.Scheduler = timedName(worker, j.Scheduler)
	start := time.Now()
	res, rec, err := testbed.RunJob(alias, testbed.Config{})
	st.run = time.Since(start)
	st.runtime = rec
	if !st.firstSchedule.IsZero() {
		st.setup = st.firstSchedule.Sub(st.created)
	}
	jr := sweep.JobResult{Job: j}
	if err != nil {
		jr.Err = fmt.Errorf("job %s: %w", j.Key(), err)
		return jr
	}
	res.Scheduler = j.Scheduler
	jr.Res = res
	return jr
}

// timedRegistry registers, for every worker and policy, a scheduler
// alias whose factory wraps the policy in a timedSched recording into
// that worker's current job. Testbed jobs build their scheduler by name
// inside the coordinator set-up; the alias is how the decorator gets
// there. A worker runs one job at a time and the factory runs on its
// goroutine, so each slot has a single writer and reader.
type timedRegistry struct {
	stats []*jobStats
	// traced is set before each study run, never during one.
	traced bool
}

func timedName(worker int, policy string) string {
	return fmt.Sprintf("perfbench-w%d/%s", worker, policy)
}

func newTimedRegistry(workers int, policies []string) *timedRegistry {
	reg := &timedRegistry{stats: make([]*jobStats, workers)}
	for w := 0; w < workers; w++ {
		for _, p := range policies {
			sched.Register(timedName(w, p), func(params sched.Params) (sched.Scheduler, error) {
				s, err := sched.New(p, params)
				if err != nil {
					return nil, err
				}
				st := reg.stats[w]
				st.created = time.Now()
				return &timedSched{inner: s, st: st, traced: reg.traced}, nil
			})
		}
	}
	return reg
}
