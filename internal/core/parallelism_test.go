package core

import (
	"fmt"
	"testing"

	"repro/internal/shapes"
	"repro/internal/spn"
)

// Config.Parallelism is accepted and ignored. These tests pin that no value
// of it changes the reachability graph or the metrics, over the same model
// grid the explorer's reference test uses (explore_equiv_test.go).

// parallelismGrid covers both protocols, one and three groups, two
// detection shapes and both eviction models at small N.
func parallelismGrid() []struct {
	name string
	cfg  Config
} {
	var grid []struct {
		name string
		cfg  Config
	}
	for _, n := range []int{6, 11, 16} {
		for _, mg := range []int{1, 3} {
			for _, det := range []shapes.Kind{shapes.Linear, shapes.Polynomial} {
				for _, explicit := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.N = n
					cfg.MaxGroups = mg
					cfg.Detection = det
					cfg.ExplicitEviction = explicit
					grid = append(grid, struct {
						name string
						cfg  Config
					}{fmt.Sprintf("N%d_g%d_%v_ev%v", n, mg, det, explicit), cfg})
				}
			}
		}
	}
	ch := DefaultConfig()
	ch.N = 11
	ch.Protocol = ProtocolClusterHead
	grid = append(grid, struct {
		name string
		cfg  Config
	}{"clusterhead_N11", ch})
	return grid
}

// exploreAt builds the model for cfg with the given Parallelism and
// returns its reachability graph.
func exploreAt(t *testing.T, cfg Config, parallelism int) *spn.Graph {
	t.Helper()
	cfg.Parallelism = parallelism
	model, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExploreParallelMatchesSequential asserts that setting Parallelism
// yields the same state numbering and the same edges as leaving it 0.
func TestExploreParallelMatchesSequential(t *testing.T) {
	for _, v := range parallelismGrid() {
		t.Run(v.name, func(t *testing.T) {
			seq := exploreAt(t, v.cfg, 0)
			for _, p := range []int{1, 8} {
				got := exploreAt(t, v.cfg, p)
				if got.NumStates() != seq.NumStates() || got.NumEdges() != seq.NumEdges() || got.Initial != seq.Initial {
					t.Fatalf("P=%d: %d states, %d edges, initial %d; P=0: %d, %d, %d", p,
						got.NumStates(), got.NumEdges(), got.Initial, seq.NumStates(), seq.NumEdges(), seq.Initial)
				}
				for i := range seq.States {
					if seq.States[i].Key() != got.States[i].Key() {
						t.Fatalf("P=%d: state %d is %s, P=0 %s", p, i, got.States[i].Key(), seq.States[i].Key())
					}
					if len(seq.Edges[i]) != len(got.Edges[i]) {
						t.Fatalf("P=%d: state %d has %d edges, P=0 %d", p, i, len(got.Edges[i]), len(seq.Edges[i]))
					}
					for j, e := range seq.Edges[i] {
						if got.Edges[i][j] != e {
							t.Fatalf("P=%d: state %d edge %d is %+v, P=0 %+v", p, i, j, got.Edges[i][j], e)
						}
					}
				}
			}
		})
	}
}

// TestParallelEvaluationEquivalence asserts the full metric pipeline
// returns bit-identical results with and without Parallelism set.
func TestParallelEvaluationEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 16
	seqRes, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	parRes, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.MTTSF != parRes.MTTSF {
		t.Errorf("MTTSF %v (Parallelism 4) != %v (Parallelism 0)", parRes.MTTSF, seqRes.MTTSF)
	}
	if seqRes.Ctotal != parRes.Ctotal {
		t.Errorf("Ctotal %v (Parallelism 4) != %v (Parallelism 0)", parRes.Ctotal, seqRes.Ctotal)
	}
}
