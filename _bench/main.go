// Command stmbench is stmaker's serving benchmark. It builds a workload's
// world, trains a summarizer and serves it over loopback HTTP the way
// cmd/stmakerd does, drives it with open-loop single requests and
// closed-loop batches, checks every summary against a reference, and
// prints the end-to-end metrics. With --trace 1 it instead runs the
// traced pipeline and prints the per-layer ledger. See README.md.
//
// Usage:
//
//	stmbench --workload short-dense|sparse-hmm|long-trips --seed N
//	         [--seconds 30] [--trace 0|1] [--spans FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output was wrong, 3 when the open-loop generator fell behind its
// schedule (the run is invalid and prints no result), 2 on bad usage or
// a set-up failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

var inf = math.Inf(1)

// failedLatencyMs stands in for a percentile that landed on a failed
// request (an infinite latency), which JSON cannot carry.
const failedLatencyMs = 1e9

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the served traffic")
	seconds := fs.Float64("seconds", 30, "measured seconds, split into rounds of open loop (60%) then closed loop (40%)")
	trace := fs.Int("trace", 0, "1 runs the traced pipeline and prints per-layer metrics")
	spans := fs.String("spans", "", "traced run: write spans here (default .bench_build/spans/<workload>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "stmbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	var (
		metrics []metric
		t       tally
	)
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-seed%d.json", w.name, *seed)
		}
		res, err := runTrace(w, *seed, *seconds, path, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "stmbench:", err)
			return 2
		}
		metrics, t = res.metrics, res.tally
		fmt.Fprintf(stdout, "workload %s seed %d: traced run, %d items (stage self times are per item)\n", w.name, *seed, t.attempted)
	} else {
		res, err := runServe(w, *seed, *seconds, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "stmbench:", err)
			return 2
		}
		metrics, t = serveMetrics(w, res), res.tally
		report(stdout, w, *seed, res)
		if !res.generatorOK {
			fmt.Fprintf(stderr, "stmbench: invalid run: open-loop generator p99 lateness %.3f ms exceeds %d ms\n",
				percentile(res.lateMs(), 99), maxLateMs)
			return 3
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	out := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]map[string]any{}}
	for _, m := range metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "stmbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintf(stderr, "stmbench: %d of %d operations failed\n", t.failed, t.attempted)
		return 1
	}
	return 0
}

// serveMetrics is the end-to-end metric set, the same on every workload.
// The timings are medians over the run's rounds; allocations are totals.
func serveMetrics(w workload, res *serveResult) []metric {
	var p50, tail, rate []float64
	for _, o := range res.open {
		p50 = append(p50, finite(percentile(o.latencyMs, 50)))
		tail = append(tail, finite(percentile(o.latencyMs, w.tailPct)))
	}
	var items int
	var mallocs uint64
	for _, cl := range res.closed {
		rate = append(rate, float64(cl.items)/cl.elapsed.Seconds())
		items += cl.items
		mallocs += cl.mallocs
	}
	return []metric{
		{"setup_s", median(res.setupS), "s"},
		{"items_per_s", median(rate), "1/s"},
		{"latency_p50_ms", median(p50), "ms"},
		{"latency_tail_ms", median(tail), "ms"},
		{"allocs_per_item", float64(mallocs) / float64(items), "count"},
	}
}

// finite maps a percentile that landed on a failed request (an infinite
// latency) to failedLatencyMs, since JSON cannot carry infinity.
func finite(ms float64) float64 {
	if math.IsInf(ms, 1) {
		return failedLatencyMs
	}
	return ms
}

// report prints the run's context: what was measured, on how many
// samples, and the harness self-checks.
func report(out io.Writer, w workload, seed int64, res *serveResult) {
	per := len(res.open[0].latencyMs)
	var batches int
	var closedS float64
	for _, cl := range res.closed {
		batches += len(cl.replies)
		closedS += cl.elapsed.Seconds()
	}
	late := res.lateMs()
	fmt.Fprintf(out, "workload %s seed %d: %d rounds of open then closed loop\n", w.name, seed, len(res.open))
	fmt.Fprintf(out, "  open loop:   %d single requests per round at %g/s; latency_tail_ms is the median over rounds of p%g, %d of each round's %d samples beyond it\n",
		per, w.rate, w.tailPct, beyond(per, w.tailPct), per)
	if beyond(per, w.tailPct) < minTailSamples {
		fmt.Fprintf(out, "  note: a round holds too few samples for p%g to have %d beyond it\n", w.tailPct, minTailSamples)
	}
	fmt.Fprintf(out, "  generator:   lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms (run invalid beyond p99 %d ms)\n",
		percentile(late, 50), percentile(late, 99), percentile(late, 100), maxLateMs)
	fmt.Fprintf(out, "  closed loop: %d clients, %d batches of %d items in %.3f s\n", clients, batches, w.batch, closedS)
	if !w.cycle {
		fmt.Fprintf(out, "  trip pool:   %d of %d distinct trips used, none repeated\n", res.poolUsed, w.pool)
	}
	fmt.Fprintf(out, "  allocs_per_item counts every allocation in the process (server and client) during the closed loop\n")
	fmt.Fprintf(out, "  error_rate   %.6g (%d failed of %d attempted)\n", res.tally.errorRate(), res.tally.failed, res.tally.attempted)
	fmt.Fprintf(out, "  reference digest %s (first %d trips; must match across runs of one seed)\n", res.digest, digestTrips)
}
