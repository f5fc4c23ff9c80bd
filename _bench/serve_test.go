package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestOpenLoopTimesFromScheduledSend drives a server that takes 20 ms
// per request with ten requests due 1 ms apart. Two senders can have
// only two requests in flight, so later requests wait for a sender; their
// latency must include that wait, which timing from the actual send
// would hide.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const service = 20 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()
	b := bodies{single: [][]byte{[]byte(`{}`)}, batch: 1}

	res := openLoop(c, b, 0, 10, 1000)
	if len(res.latencyMs) != 10 || len(res.lateMs) != 10 {
		t.Fatalf("got %d latencies, %d lateness samples", len(res.latencyMs), len(res.lateMs))
	}
	// Request i is due at i ms and, two at a time, completes no earlier
	// than (i/2+1)·20 ms.
	for i, got := range res.latencyMs {
		floor := float64((i/2+1)*20 - i)
		if got < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.0f ms (its wait for a sender)", i, got, floor)
		}
	}
	for i, r := range res.replies {
		if r.err != nil || r.code != http.StatusOK {
			t.Errorf("request %d: code %d err %v", i, r.code, r.err)
		}
	}
}

// TestWorkloadSmoke runs every workload end to end for a moment, untraced
// and traced, and checks each prints a correct result carrying exactly
// the metrics BENCHMARK.json lists.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.4", "--trace", trace,
				"--spans", t.TempDir() + "/spans.json"}
			code := run(args, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecWorkloadsExist(t *testing.T) {
	for _, sw := range readSpec(t).Workloads {
		if _, err := lookupWorkload(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json names workload %q: %v", sw.Name, err)
		}
	}
}
