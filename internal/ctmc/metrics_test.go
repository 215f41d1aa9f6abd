package ctmc

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/spn"
)

// TestArmedSolveAllocatesLikeDisarmed pins the price of armed telemetry on
// the evaluation hot path: the assembly stage span, the solve stage and the
// per-backend latency and iteration histograms must not allocate, so
// assembling a chain and running its sojourn solve armed allocates exactly
// what it does disarmed.
func TestArmedSolveAllocatesLikeDisarmed(t *testing.T) {
	defer obs.SetArmed(true)
	// A 40-token drain: a 41-state death chain absorbed when A empties.
	n := spn.New()
	a := n.AddPlace("A")
	b := n.AddPlace("B")
	n.MustAddTransition(&spn.Transition{
		Name:    "drain",
		Inputs:  []spn.Arc{{Place: a, Weight: 1}},
		Outputs: []spn.Arc{{Place: b, Weight: 1}},
	})
	n.SetRates(func(m spn.Marking, out []float64) { out[0] = 1.5 * float64(m[a]) })
	g, err := n.Explore(spn.Marking{40, 0}, spn.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(armed bool) float64 {
		obs.SetArmed(armed)
		return testing.AllocsPerRun(50, func() {
			if _, err := FromGraph(g).Solve(g.Initial); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := allocs(false), allocs(true)
	if on != off {
		t.Errorf("armed assemble+solve allocates %v per op, disarmed %v: instrumentation must not allocate", on, off)
	}
}
