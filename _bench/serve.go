package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stmaker"
	"stmaker/internal/sanitize"
	"stmaker/internal/server"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// clients is the number of client goroutines and connections driving
// the server: the core count of the machine the benchmark was sized on.
const clients = 2

// warmBatches is the warm-up length of a workload whose trips never
// repeat.
const warmBatches = 32

// newSummarizer builds the summarizer the way cmd/stmakerd's
// single-region mode does with default flags: sanitization on, every
// other option at its default, HMM matching only when the workload asks.
func newSummarizer(w workload, city *simulate.City) (*stmaker.Summarizer, error) {
	return stmaker.New(stmaker.Config{
		Graph:          city.Graph,
		Landmarks:      city.Landmarks,
		UseHMMMatching: w.hmm,
		Sanitize:       &sanitize.Options{},
	})
}

// instance is one trained summarizer behind a running loopback server.
type instance struct {
	s    *stmaker.Summarizer
	base string
	stop context.CancelFunc
	done chan error
}

// close drains the server and waits for Serve to return.
func (in *instance) close() error {
	in.stop()
	return <-in.done
}

// startInstance is the timed set-up: world build, Train, server start on
// loopback, then /readyz polled until it answers 200.
func startInstance(w workload, corpus []*traj.Raw) (*instance, time.Duration, error) {
	t0 := time.Now()
	city := buildWorld(w)
	s, err := newSummarizer(w, city)
	if err != nil {
		return nil, 0, err
	}
	if _, err := s.Train(corpus); err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	srv, err := server.NewWithOptions(s, server.Options{
		Logger:         server.DiscardLogger(),
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ctx, stop := context.WithCancel(context.Background())
	in := &instance{s: s, base: "http://" + ln.Addr().String(), stop: stop, done: make(chan error, 1)}
	go func() { in.done <- srv.Serve(ctx, ln, server.ServeOptions{DrainTimeout: 10 * time.Second}) }()
	if err := waitReady(in.base); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(t0), nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply is one response as received, kept for checking after the timed
// phases so that decoding does not compete with the server for CPU.
type reply struct {
	trips []int // pool indices of the items, in request order
	batch bool
	code  int
	err   error
	body  []byte
}

// itemReply is the part of a server.SummarizeResponse the check reads.
type itemReply struct {
	ID    string `json:"id"`
	Text  string `json:"text"`
	Error string `json:"error"`
}

// bodies holds the single-request body of every pool trip, encoded
// before timing. Batch j is the concatenation of trips
// [j·batch, (j+1)·batch), assembled when it is sent.
type bodies struct {
	single [][]byte
	batch  int
}

func encodeBodies(w workload, trips []*traj.Raw) (bodies, error) {
	b := bodies{single: make([][]byte, len(trips)), batch: w.batch}
	for i, r := range trips {
		body, err := json.Marshal(server.SummarizeRequest{Trajectory: r, K: w.kFor(i)})
		if err != nil {
			return b, err
		}
		b.single[i] = body
	}
	return b, nil
}

// batches is how many whole batches the pool holds.
func (b bodies) batches() int { return len(b.single) / b.batch }

// batchBody assembles the server.BatchRequest body of batch j.
func (b bodies) batchBody(j int) []byte {
	items := b.single[j*b.batch : (j+1)*b.batch]
	n := len(`{"items":[]}`) + len(items) - 1
	for _, it := range items {
		n += len(it)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"items":[`...)
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, it...)
	}
	return append(buf, `]}`...)
}

// client posts pre-encoded bodies over at most `clients` connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) close() { c.http.CloseIdleConnections() }

// openResult is the open-loop phase: latencies timed from each request's
// scheduled send time, and how late the generator handed requests out.
type openResult struct {
	latencyMs []float64 // +Inf for failed requests, filled in by check
	lateMs    []float64
	replies   []reply
}

// openLoop sends n single requests at a fixed rate, starting at pool
// index first. A generator goroutine releases request i at its scheduled
// time start + i/rate; `clients` senders take released requests in
// order. A request that waits for a free sender keeps its scheduled
// time, so a stall is charged to every request it delays.
func openLoop(c *client, b bodies, first, n int, rate float64) openResult {
	res := openResult{
		latencyMs: make([]float64, n),
		lateMs:    make([]float64, n),
		replies:   make([]reply, n),
	}
	type job struct {
		i     int
		sched time.Time
	}
	jobs := make(chan job, n) // sized to the schedule: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(clients)
	for k := 0; k < clients; k++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				trip := (first + j.i) % len(b.single)
				code, body, err := c.post("/summarize", b.single[trip])
				res.latencyMs[j.i] = msSince(j.sched)
				res.replies[j.i] = reply{trips: []int{trip}, code: code, err: err, body: body}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		res.lateMs[i] = msSince(sched)
		jobs <- job{i: i, sched: sched}
	}
	close(jobs)
	wg.Wait()
	return res
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// closedResult is the closed-loop phase.
type closedResult struct {
	items     int
	elapsed   time.Duration
	mallocs   uint64
	replies   []reply
	exhausted bool // the trip pool ran out before the phase's time did
}

// closedLoop runs `clients` clients, each posting batch requests back
// to back, taking batches first, first+1, ... (modulo the pool when it
// cycles) until d has passed or batch `end` would be next.
func closedLoop(c *client, b bodies, w workload, first, end int, d time.Duration) closedResult {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var res closedResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for k := 0; k < clients; k++ {
		go func() {
			defer wg.Done()
			var mine []reply
			ranOut := false
			for time.Now().Before(deadline) {
				j := int(next.Add(1) - 1)
				if j >= end {
					ranOut = true
					break
				}
				j %= b.batches()
				code, body, err := c.post("/summarize/batch", b.batchBody(j))
				trips := make([]int, w.batch)
				for t := range trips {
					trips[t] = j*w.batch + t
				}
				mine = append(mine, reply{trips: trips, batch: true, code: code, err: err, body: body})
			}
			mu.Lock()
			res.replies = append(res.replies, mine...)
			res.exhausted = res.exhausted || ranOut
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.items = len(res.replies) * w.batch
	return res
}

// references computes the expected summary text of every pool trip in
// need with the reference summarizer, on `clients` goroutines. The
// reference is a separately trained instance, so computing it never
// warms the served instance's caches.
func references(ref *stmaker.Summarizer, w workload, trips []*traj.Raw, need map[int]bool) (map[int]string, error) {
	idx := make([]int, 0, len(need))
	for i := range need {
		idx = append(idx, i)
	}
	texts := make([]string, len(idx))
	errs := make([]error, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for k := 0; k < clients; k++ {
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(idx) {
					return
				}
				sum, err := ref.SummarizeK(trips[idx[n]], w.kFor(idx[n]))
				if err != nil {
					errs[n] = fmt.Errorf("reference for trip %d: %w", idx[n], err)
					continue
				}
				texts[n] = sum.Text
			}
		}()
	}
	wg.Wait()
	out := make(map[int]string, len(idx))
	for n, i := range idx {
		if errs[n] != nil {
			return nil, errs[n]
		}
		out[i] = texts[n]
	}
	return out, nil
}

// checkReply decodes one response and compares every item with its
// reference, returning one verdict per item.
func checkReply(r reply, trips []*traj.Raw, ref map[int]string) []bool {
	ok := make([]bool, len(r.trips))
	if r.err != nil || r.code < 200 || r.code > 299 {
		return ok
	}
	var items []itemReply
	if r.batch {
		if json.Unmarshal(r.body, &items) != nil {
			return ok
		}
	} else {
		var one itemReply
		if json.Unmarshal(r.body, &one) != nil {
			return ok
		}
		items = []itemReply{one}
	}
	if len(items) != len(r.trips) {
		return ok
	}
	for n, it := range items {
		trip := r.trips[n]
		ok[n] = it.Error == "" && it.ID == trips[trip].ID && it.Text == ref[trip]
	}
	return ok
}

// digestTrips is how many of the pool's first trips the reference
// digest covers.
const digestTrips = 32

// referenceDigest hashes the reference texts of the pool's first
// digestTrips trips. Two runs of the same seed must print the same
// digest; a difference is a program defect (non-deterministic summaries).
func referenceDigest(refs map[int]string) string {
	h := sha256.New()
	for i := 0; i < digestTrips; i++ {
		fmt.Fprintf(h, "%d\x00%s\x00", i, refs[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// logFailure reports the first few failures of a run; the count of all
// of them is in the result line.
func logFailure(log io.Writer, t tally, format string, args ...any) {
	if t.failed <= 10 {
		fmt.Fprintf(log, "FAIL "+format+"\n", args...)
	}
}

// serveResult is everything a serving run measured, per round.
type serveResult struct {
	setupS      []float64
	open        []openResult
	closed      []closedResult
	tally       tally
	digest      string
	poolUsed    int
	generatorOK bool
}

// lateMs is the generator lateness of every open-loop request.
func (r *serveResult) lateMs() []float64 {
	var all []float64
	for _, o := range r.open {
		all = append(all, o.lateMs...)
	}
	return all
}

// maxLateMs is the p99 generator lateness beyond which an open-loop run
// is invalid. It sits well above the Go scheduler's 10 ms preemption
// slice and the stalls of a shared virtual machine: a generator this late
// is no longer offering the workload's rate.
const maxLateMs = 50

// phases splits a run's measured seconds into rounds, and each round
// between the open loop (60%), whose latency percentiles need the
// samples, and the closed loop.
func phases(seconds float64, rounds int) (open, closed time.Duration) {
	round := time.Duration(seconds * float64(time.Second) / float64(rounds))
	open = round * 3 / 5
	return open, round - open
}

// openRequests is how many requests an open-loop round of length d
// sends at rate per second (at least one).
func openRequests(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds())))
}

// runServe is the untraced serving run: set up w.setupReps times, warm
// up, then the rounds of open and closed loop, then the correctness check.
func runServe(w workload, seed int64, seconds float64, log io.Writer) (*serveResult, error) {
	// Inputs are generated outside the timed set-up.
	genCity := buildWorld(w)
	corpus := trainingCorpus(w, genCity)
	trips := servedTrips(w, genCity, seed)
	b, err := encodeBodies(w, trips)
	if err != nil {
		return nil, err
	}

	res := &serveResult{}
	var ref, served *instance
	for r := 0; r < w.setupReps; r++ {
		runtime.GC()
		in, took, err := startInstance(w, corpus)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		res.setupS = append(res.setupS, took.Seconds())
		switch {
		case ref == nil:
			// The first instance becomes the reference summarizer; its
			// server is not needed.
			ref = in
			if err := in.close(); err != nil {
				return nil, err
			}
		case served != nil:
			if err := served.close(); err != nil {
				return nil, err
			}
			served = in
		default:
			served = in
		}
	}
	defer served.close()
	fmt.Fprintf(log, "set-up: %d reps %v s\n", w.setupReps, res.setupS)

	c := newClient(served.base)
	defer c.close()

	// Warm-up: closed-loop traffic over the whole pool when it cycles
	// (so every lazily filled cache holds what the measured phases will
	// ask for), else over its first warmBatches batches, which no measured
	// request replays. Set-up garbage is collected first.
	runtime.GC()
	warm := b.batches()
	if !w.cycle {
		warm = warmBatches
	}
	if r := closedLoop(c, b, w, 0, warm, time.Hour); failedReplies(r.replies) > 0 {
		return nil, fmt.Errorf("warm-up: %d failed requests", failedReplies(r.replies))
	}
	cursor := 0
	if !w.cycle {
		cursor = warm * w.batch
	}

	// Measured phases: the open and closed loops alternate in w.blocks
	// rounds, so a slow spell of the machine spoils a minority of the
	// rounds instead of a whole phase; the timing metrics are medians
	// over rounds.
	openD, closedD := phases(seconds, w.blocks)
	nOpen := openRequests(w.rate, openD)
	end := math.MaxInt
	if !w.cycle {
		end = b.batches()
	}
	for blk := 0; blk < w.blocks; blk++ {
		if !w.cycle && cursor+nOpen > len(b.single) {
			fmt.Fprintf(log, "note: the %d-trip pool ran out before round %d\n", w.pool, blk+1)
			break
		}
		res.open = append(res.open, openLoop(c, b, cursor, nOpen, w.rate))
		first := (cursor + nOpen + w.batch - 1) / w.batch
		cl := closedLoop(c, b, w, first, end, closedD)
		res.closed = append(res.closed, cl)
		cursor = (first + len(cl.replies)) * w.batch
		if cl.exhausted {
			fmt.Fprintf(log, "note: the %d-trip pool ran out in round %d\n", w.pool, blk+1)
			break
		}
	}
	res.poolUsed = cursor

	// Correctness: every item against its reference.
	need := map[int]bool{}
	for i := 0; i < digestTrips; i++ {
		need[i] = true
	}
	for _, o := range res.open {
		for _, r := range o.replies {
			need[r.trips[0]] = true
		}
	}
	for _, cl := range res.closed {
		for _, r := range cl.replies {
			for _, t := range r.trips {
				need[t] = true
			}
		}
	}
	refs, err := references(ref.s, w, trips, need)
	if err != nil {
		return nil, err
	}
	for _, o := range res.open {
		for i, r := range o.replies {
			ok := checkReply(r, trips, refs)[0]
			res.tally.add(ok)
			if !ok {
				o.latencyMs[i] = inf
				logFailure(log, res.tally, "open request (trip %d): %s", r.trips[0], describe(r))
			}
		}
	}
	for _, cl := range res.closed {
		for _, r := range cl.replies {
			for n, ok := range checkReply(r, trips, refs) {
				res.tally.add(ok)
				if !ok {
					logFailure(log, res.tally, "batch item (trip %d): %s", r.trips[n], describe(r))
				}
			}
		}
	}
	res.digest = referenceDigest(refs)
	res.generatorOK = percentile(res.lateMs(), 99) <= maxLateMs
	return res, nil
}

// failedReplies counts replies that are not a 2xx response.
func failedReplies(rs []reply) int {
	n := 0
	for _, r := range rs {
		if r.err != nil || r.code < 200 || r.code > 299 {
			n++
		}
	}
	return n
}

func describe(r reply) string {
	switch {
	case r.err != nil:
		return "transport error: " + r.err.Error()
	case r.code < 200 || r.code > 299:
		return fmt.Sprintf("HTTP %d: %.200s", r.code, r.body)
	default:
		return "summary differs from the reference"
	}
}
