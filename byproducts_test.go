package stmaker

import (
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/partition"
	"stmaker/internal/simulate"
	"stmaker/internal/summarize"
	"stmaker/internal/traj"
)

// TestSelectedEventsMatchExtraction is a property over simulated trips
// with injected stays and U-turns, under greedy and HMM matching and at
// k = 0 and 3: every selected Stay or U-turn feature carries exactly the
// events extraction counted over its partition (the matrix column summed
// over the partition's segments), the very events Detect finds there,
// with one place name per event. After each request the serving
// Context keeps nothing of the trajectory.
func TestSelectedEventsMatchExtraction(t *testing.T) {
	for _, hmm := range []bool{false, true} {
		city, s := newWorld(t, func(c *Config) { c.UseHMMMatching = hmm })
		reg := s.Registry()
		jStay, jTurn := reg.IndexOf(feature.KeyStayPoints), reg.IndexOf(feature.KeyUTurns)
		var checked [2]int
		for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 40, Seed: 57, FixedHour: 8}) {
			sym, err := s.Calibrate(tr.Raw)
			if err != nil {
				continue
			}
			// Moving features read only the samples, so a bare Context
			// reproduces the serving extraction's counts.
			matrix := reg.ExtractAll(sym, feature.NewContext(nil, nil, nil))
			for _, k := range []int{0, 3} {
				sum, err := s.SummarizeSymbolic(sym, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range sum.Parts {
					for _, f := range p.Features {
						switch f.Key {
						case feature.KeyStayPoints:
							checkStays(t, sym, p.Part, f, colSum(matrix, jStay, p.Part))
							checked[0] += len(f.Stays)
						case feature.KeyUTurns:
							checkUTurns(t, sym, p.Part, f, colSum(matrix, jTurn, p.Part))
							checked[1] += len(f.UTurns)
						}
					}
				}
				assertReleased(t, s, sym)
			}
		}
		if checked[0] == 0 || checked[1] == 0 {
			t.Fatalf("hmm=%v: vacuous: %d stays and %d U-turns checked", hmm, checked[0], checked[1])
		}
		t.Logf("hmm=%v: %d stays and %d U-turns checked", hmm, checked[0], checked[1])
	}
}

// colSum is Σ matrix[i][j] over the partition's segments.
func colSum(matrix []feature.Vector, j int, part partition.Part) int {
	n := 0
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		n += int(matrix[i][j])
	}
	return n
}

func checkStays(t *testing.T, sym *traj.Symbolic, part partition.Part, f summarize.SelectedFeature, want int) {
	t.Helper()
	if len(f.Stays) != want || len(f.StayAt) != want {
		t.Fatalf("%s %v: %d stays, %d names; extraction counted %d", sym.ID, part, len(f.Stays), len(f.StayAt), want)
	}
	var detected []feature.Stay
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		detected = append(detected, feature.NewStayPoints().Detect(sym.Segment(i).RawSamples())...)
	}
	var total time.Duration
	for i, st := range f.Stays {
		if st != detected[i] {
			t.Fatalf("%s %v: stay %d = %+v, Detect found %+v", sym.ID, part, i, st, detected[i])
		}
		total += st.Duration
	}
	if total != f.TotalStay {
		t.Fatalf("%s %v: TotalStay %v, stays sum to %v", sym.ID, part, f.TotalStay, total)
	}
}

func checkUTurns(t *testing.T, sym *traj.Symbolic, part partition.Part, f summarize.SelectedFeature, want int) {
	t.Helper()
	if len(f.UTurns) != want || len(f.UTurnAt) != want {
		t.Fatalf("%s %v: %d U-turns, %d names; extraction counted %d", sym.ID, part, len(f.UTurns), len(f.UTurnAt), want)
	}
	var detected []feature.UTurn
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		detected = append(detected, feature.NewUTurns().Detect(sym.Segment(i).RawSamples())...)
	}
	for i, u := range f.UTurns {
		if u != detected[i] {
			t.Fatalf("%s %v: U-turn %d = %+v, Detect found %+v", sym.ID, part, i, u, detected[i])
		}
	}
}

// assertReleased fails when the serving Context still holds stays or
// U-turns of the trajectory.
func assertReleased(t *testing.T, s *Summarizer, sym *traj.Symbolic) {
	t.Helper()
	for i := 0; i < sym.NumSegments(); i++ {
		if s.ctx.Stays(sym.Segment(i)) != nil || s.ctx.UTurns(sym.Segment(i)) != nil {
			t.Fatalf("%s: serving Context still holds segment %d's by-products", sym.ID, i)
		}
	}
}

// TestPartitionReleasesServingContext pins that Partition, which extracts
// through the long-lived serving Context, leaves no entry behind.
func TestPartitionReleasesServingContext(t *testing.T) {
	city, s := newWorld(t, nil)
	for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 40, Seed: 57, FixedHour: 8}) {
		if !tr.HasEvent(simulate.EventStay) {
			continue
		}
		sym, err := s.Calibrate(tr.Raw)
		if err != nil {
			continue
		}
		// The probe is live: an unreleased extraction is visible.
		s.registry.ExtractAll(sym, s.ctx)
		kept := false
		for i := 0; i < sym.NumSegments(); i++ {
			kept = kept || s.ctx.Stays(sym.Segment(i)) != nil
		}
		s.ctx.ReleaseEdges(sym)
		if !kept {
			continue
		}
		if _, err := s.Partition(sym, 0); err != nil {
			t.Fatal(err)
		}
		assertReleased(t, s, sym)
		return
	}
	t.Fatal("no calibrated trip with a detected stay")
}
