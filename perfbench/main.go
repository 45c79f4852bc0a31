// Command perfbench is the repository benchmark. One process runs one
// workload of crash-and-recover experiments in a closed loop, at a pool
// width of runtime.NumCPU(), and reports two clocks side by side: the host
// time, bytes and memory the simulator spends, and the modeled recovery
// figures (success rate, service interruption) the simulated machine's
// clock gives.
//
//	perfbench --workload table5|fleet|wal-crash --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it runs the same experiment sequence once more through the
// traced pipeline (a span around every public call experiment.Run and
// experiment.FleetRecovery make) under a CPU profile, and reports the
// per-layer metrics; the spans and the profile split are written to
// --out. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result: gated metrics go into the final JSON
// line, and every metric (gated or not) is printed as a table above it.
type report struct {
	workload string
	// attempted counts experiments and output checks; failed counts
	// experiments whose outputs failed a check.
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	lines             []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

// put records a metric that goes into the JSON result and the table.
func (r *report) put(name string, v float64, unit, better, clock, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, better, clock, note)
}

// show prints a metric in the table without adding it to the JSON result:
// the workload-specific figures that are reported but not gated.
func (r *report) show(name string, v float64, unit, better, clock, note string) {
	line := fmt.Sprintf("%-10s %-36s %18.6f %-6s %-7s %-8s %s", r.workload, name, v, unit, better, clock, note)
	r.lines = append(r.lines, strings.TrimRight(line, " "))
}

// fail records one failed output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same experiments")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced per-layer run")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for the span file and CPU profile (trace runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	rep := newReport(*wl)
	var err error
	if *traced == 1 {
		err = runTraced(def, *seed, *out, rep)
	} else {
		err = runUntraced(def, *seed, time.Duration(*seconds)*time.Second, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%-10s %-36s %18s %-6s %-7s %-8s %s\n", "workload", "metric", "value", "unit", "better", "clock", "note")
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// width is the pool width every workload runs at: campaign pool width and
// resurrection pool width both equal the CPUs the process may use.
func width() int { return runtime.NumCPU() }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
