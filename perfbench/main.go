// Command perfbench is the repository's benchmark. It runs one
// workload (or all of them) through the study layer for a fixed number
// of seconds, checks every job's output against the input trace, and
// prints the metrics as one JSON object on the last line of stdout:
// the end-to-end metrics on an untraced run (--trace 0), the per-layer
// metrics on a traced run (--trace 1). Build and run it from the root
// of a checkout with
//
//	bash perfbench/run.sh --workload fb-lcof --seed 1 --seconds 20 --trace 0
//
// README.md beside this file describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"

	_ "saath/internal/core"        // saath
	_ "saath/internal/sched/aalo"  // aalo
	_ "saath/internal/sched/uctcp" // uc-tcp
	_ "saath/internal/sched/varys" // varys
	_ "saath/internal/testbed"     // testbed runner and studies
)

const (
	// defaultTraceSeed is the synthetic draw every workload uses;
	// heldOutTraceSeed is kept for confirming a claim on inputs it was
	// not tuned on (--trace-seed 7).
	defaultTraceSeed = 1
	heldOutTraceSeed = 7
)

type options struct {
	workload  string
	seed      int64
	traceSeed int64
	seconds   float64
	traced    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 0, "run seed: permutes the port labels of every input trace (0 keeps the generator's labels)")
	flag.Int64Var(&o.traceSeed, "trace-seed", defaultTraceSeed, fmt.Sprintf("synthetic draw of the input traces (%d is held out for confirming claims)", heldOutTraceSeed))
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures, in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.Parse()
	o.traced = traced == 1
	if flag.NArg() > 0 || o.workload == "" || (traced != 0 && traced != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name|all> [--seed n] [--trace-seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := newBench(w, o).measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printResult writes the human-readable report to stderr.
func printResult(name string, res *result) {
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// runAll runs every workload, one child process each, so that peak
// RSS is each workload's own. Children run one after another; each
// uses at most two workers. The last line sums attempted and failed
// and prefixes each metric with its workload.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		traced := 0
		if o.traced {
			traced = 1
		}
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(o.seed),
			"--trace-seed", fmt.Sprint(o.traceSeed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
			return 1
		}
		line, _ := json.Marshal(struct {
			Workload string `json:"workload"`
			result
		}{w.name, res})
		fmt.Println(string(line))
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}

// workers bounds the job pool: two, or fewer on a smaller machine.
func workers() int { return min(2, runtime.NumCPU()) }
