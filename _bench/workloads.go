package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// workload is one frozen traffic mix. Every field is part of the
// benchmark's definition: a change to any of them changes what the
// numbers mean, so it is a benchmark change, not a tuning knob.
type workload struct {
	name       string
	rows, cols int           // city street grid
	trainTrips int           // calm training corpus size
	interval   time.Duration // GPS sampling period of every trip
	minHops    int           // minimum intersections per trip (0: simulator default)
	noise      float64       // uniform position noise added to served trips, metres
	hmm        bool          // HMM (Viterbi) map matching instead of greedy
	altK       int           // odd-numbered trips ask for exactly altK parts (0: all optimal)

	rate    float64 // open-loop arrivals per second
	blocks  int     // rounds of open then closed loop; timings are medians over rounds
	tailPct float64 // per-round percentile reported as latency_tail_ms, ≥10 samples beyond it
	batch   int     // items per closed-loop batch request
	pool    int     // distinct served trips
	cycle   bool    // whether served trips may repeat within a run
	// stratify > 1 draws stratify·pool trips and keeps an evenly spaced
	// sample of them by length (see stratified).
	stratify int

	setupReps int // set-ups per run; setup_s is their median
}

// workloads is the benchmark's frozen set. BENCHMARK.json names the
// first two; long-trips runs by hand only, because on the machine the
// benchmark was sized on its latency tail spread across seeds by more
// than BENCHMARK.json's largest bound.
var workloads = []workload{
	{
		name: "short-dense", rows: 7, cols: 7, trainTrips: 120,
		interval: 5 * time.Second,
		rate:     250, blocks: 15, tailPct: 90, batch: 16, pool: 2048, cycle: true,
		setupReps: 7,
	},
	{
		name: "sparse-hmm", rows: 16, cols: 16, trainTrips: 400,
		interval: 30 * time.Second, noise: 25, hmm: true,
		rate: 60, blocks: 9, tailPct: 90, batch: 16, pool: 8192,
		setupReps: 5,
	},
	{
		name: "long-trips", rows: 24, cols: 24, trainTrips: 400,
		interval: time.Second, minHops: 24, altK: 5,
		rate: 8, blocks: 3, tailPct: 68, batch: 4, pool: 128, cycle: true,
		stratify:  8,
		setupReps: 3,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// worldSeed fixes the city, its landmark significance and the training
// corpus of every workload: --seed varies only the served traffic, so
// runs on different seeds measure the same trained program.
const worldSeed = 51

// buildWorld synthesizes the workload's city and infers landmark
// significance from simulated check-ins, the way cmd/stmaker-load's self
// mode does. It is deterministic, so every call yields the same world.
func buildWorld(w workload) *simulate.City {
	city := simulate.NewCity(simulate.CityOptions{Rows: w.rows, Cols: w.cols, Seed: worldSeed})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: worldSeed + 1})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})
	return city
}

// trainingCorpus is the workload's calm training fleet.
func trainingCorpus(w workload, city *simulate.City) []*traj.Raw {
	return raws(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: w.trainTrips, Seed: worldSeed + 2, FixedHour: -1, Calm: true,
		SampleInterval: w.interval, MinHops: w.minHops,
	}))
}

// servedTrips is the traffic of one run: a fleet with injected anomalies
// drawn from seed, plus the workload's position noise, added per sample
// in a random direction as experiments.MatcherAccuracy does.
func servedTrips(w workload, city *simulate.City, seed int64) []*traj.Raw {
	trips := raws(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: w.pool * max(w.stratify, 1), Seed: 1_000_000 + seed, FixedHour: -1,
		SampleInterval: w.interval, MinHops: w.minHops,
	}))
	if w.stratify > 1 {
		trips = stratified(trips, w.pool)
	}
	if w.noise > 0 {
		rng := rand.New(rand.NewSource(2_000_000 + seed))
		for _, r := range trips {
			for i := range r.Samples {
				r.Samples[i].Pt = geo.Destination(r.Samples[i].Pt, rng.Float64()*360, rng.Float64()*w.noise)
			}
		}
	}
	return trips
}

// stratified returns n of the trips, evenly spaced in order of sample
// count, then reordered so that any run of consecutive trips spans the
// whole range of lengths. Item cost on long-trips grows with the sample
// count, which varies about thirty-fold between trips; a plain draw of n
// trips would make a run's latency percentiles depend more on which
// trips the seed drew than on the program.
func stratified(trips []*traj.Raw, n int) []*traj.Raw {
	sorted := append([]*traj.Raw(nil), trips...)
	sort.SliceStable(sorted, func(i, j int) bool { return len(sorted[i].Samples) < len(sorted[j].Samples) })
	n = min(n, len(sorted))
	step := len(sorted) / n
	even := make([]*traj.Raw, n)
	for i := range even {
		even[i] = sorted[i*step+step/2]
	}
	// Visiting the strata with a stride near n/φ, coprime with n, is a
	// low-discrepancy order: every window of it samples all lengths.
	stride := int(float64(n)/math.Phi) | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	out := make([]*traj.Raw, n)
	for i := range out {
		out[i] = even[i*stride%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// kFor is the partition count trip i is summarized with.
func (w workload) kFor(i int) int {
	if i%2 == 1 {
		return w.altK
	}
	return 0
}

func raws(fleet []*simulate.Trip) []*traj.Raw {
	out := make([]*traj.Raw, len(fleet))
	for i, t := range fleet {
		out[i] = t.Raw
	}
	return out
}
