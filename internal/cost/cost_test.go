package cost

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gdh"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.PacketBits = 0 },
		func(p *Params) { p.StatusRate = -1 },
		func(p *Params) { p.GDHElementBits = 0 },
		func(p *Params) { p.MeanHops = 0.5 },
		func(p *Params) { p.MeanDegree = -1 },
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.LambdaQ = -0.1 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateRejectsNonFinite sets every float64 field of Params, found
// by reflection so that fields added later are covered too, to NaN and
// ±Inf in turn: Validate must reject each.
func TestValidateRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := DefaultParams()
			reflect.ValueOf(&p).Elem().Field(i).SetFloat(bad)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %v accepted", typ.Field(i).Name, bad)
			}
		}
	}
	if fields == 0 {
		t.Fatal("no float64 fields found")
	}
}

func TestGDHValuesMatchesGDHPackage(t *testing.T) {
	for n := 0; n <= 150; n++ {
		if got, want := gdhValues(n), float64(gdh.NumValues(n)); got != want {
			t.Fatalf("gdhValues(%d) = %v, gdh.NumValues = %v", n, got, want)
		}
	}
}

func TestEvaluateZeroForEmptyState(t *testing.T) {
	p := DefaultParams()
	for _, s := range []State{{GroupSize: 0, Groups: 1}, {GroupSize: 5, Groups: 0}} {
		if b := p.Evaluate(s); b.Total() != 0 {
			t.Errorf("empty state %+v cost %v, want 0", s, b.Total())
		}
	}
}

func TestComponentsNonNegativeProperty(t *testing.T) {
	p := DefaultParams()
	// Rates are folded into [0, 1) events/s — the physical range; rates
	// near 1e308 only probe float overflow, not the model.
	fold := func(x float64) float64 {
		x = math.Abs(x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return 0.5
		}
		return x - math.Floor(x)
	}
	f := func(size, groups uint8, dr, er float64) bool {
		s := State{
			GroupSize:         int(size % 120),
			Groups:            int(groups % 5),
			DetectionRate:     fold(dr),
			EvictionRekeyRate: fold(er),
			PartitionRate:     0.001,
			MergeRate:         0.001,
		}
		b := p.Evaluate(s)
		return b.GC >= 0 && b.Status >= 0 && b.Rekey >= 0 && b.IDS >= 0 &&
			b.Beacon >= 0 && b.MP >= 0 && b.Total() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGCQuadraticInGroupSize(t *testing.T) {
	p := DefaultParams()
	b1 := p.Evaluate(State{GroupSize: 10, Groups: 1})
	b2 := p.Evaluate(State{GroupSize: 20, Groups: 1})
	// n(n-1): 90 vs 380.
	want := 380.0 / 90.0
	if got := b2.GC / b1.GC; math.Abs(got-want) > 1e-9 {
		t.Errorf("GC scaling = %v, want %v", got, want)
	}
}

func TestIDSCostGrowsWithMAndRate(t *testing.T) {
	p := DefaultParams()
	s := State{GroupSize: 100, Groups: 1, DetectionRate: 1.0 / 60}
	base := p.Evaluate(s).IDS
	if base <= 0 {
		t.Fatal("IDS cost zero with positive detection rate")
	}
	p2 := p
	p2.M = 9
	if got := p2.Evaluate(s).IDS; got <= base {
		t.Errorf("IDS cost with m=9 (%v) not above m=5 (%v)", got, base)
	}
	s2 := s
	s2.DetectionRate *= 3
	if got := p.Evaluate(s2).IDS; math.Abs(got-3*base) > 1e-9*base {
		t.Errorf("IDS cost not linear in detection rate: %v vs %v", got, 3*base)
	}
}

func TestIDSCostMCappedByPool(t *testing.T) {
	p := DefaultParams()
	p.M = 50
	small := State{GroupSize: 10, Groups: 1, DetectionRate: 1}
	// Pool is 9 < m: effective participation must cap at 9.
	got := p.Evaluate(small).IDS
	pCap := p
	pCap.M = 9
	want := pCap.Evaluate(small).IDS
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("pool-capped IDS cost %v, want %v", got, want)
	}
}

func TestRekeyIncludesEvictions(t *testing.T) {
	p := DefaultParams()
	s := State{GroupSize: 50, Groups: 1}
	base := p.Evaluate(s).Rekey
	s.EvictionRekeyRate = 1.0 / 600
	withEvict := p.Evaluate(s).Rekey
	if withEvict <= base {
		t.Errorf("eviction rekeys not accounted: %v vs %v", withEvict, base)
	}
}

func TestMPCostFollowsDynamicsRates(t *testing.T) {
	p := DefaultParams()
	s := State{GroupSize: 30, Groups: 2, PartitionRate: 0.001, MergeRate: 0.002}
	b := p.Evaluate(s)
	if b.MP <= 0 {
		t.Fatal("MP cost zero with nonzero dynamics")
	}
	s2 := s
	s2.PartitionRate, s2.MergeRate = 0.002, 0.004
	if got := p.Evaluate(s2).MP; math.Abs(got-2*b.MP) > 1e-9*b.MP {
		t.Errorf("MP not linear in event rates: %v vs %v", got, 2*b.MP)
	}
}

func TestGroupsMultiplyPerGroupComponents(t *testing.T) {
	p := DefaultParams()
	one := p.Evaluate(State{GroupSize: 20, Groups: 1, DetectionRate: 0.01})
	two := p.Evaluate(State{GroupSize: 20, Groups: 2, DetectionRate: 0.01})
	for name, pair := range map[string][2]float64{
		"GC":     {one.GC, two.GC},
		"Status": {one.Status, two.Status},
		"Rekey":  {one.Rekey, two.Rekey},
		"IDS":    {one.IDS, two.IDS},
		"Beacon": {one.Beacon, two.Beacon},
	} {
		if math.Abs(pair[1]-2*pair[0]) > 1e-9*math.Max(1, pair[0]) {
			t.Errorf("%s not doubled with two groups: %v vs %v", name, pair[1], 2*pair[0])
		}
	}
}

func TestBreakdownTotalIsSum(t *testing.T) {
	b := Breakdown{GC: 1, Status: 2, Rekey: 3, IDS: 4, Beacon: 5, MP: 6}
	if b.Total() != 21 {
		t.Errorf("Total = %v, want 21", b.Total())
	}
}

func TestMagnitudeSanityPaperScale(t *testing.T) {
	// With the paper's defaults (N=100, λq=1/min) Ĉtotal should land in
	// the 1e5-1e6 hop·bits/s band shown on Figure 3's axis.
	p := DefaultParams()
	b := p.Evaluate(State{
		GroupSize:     100,
		Groups:        1,
		DetectionRate: 1.0 / 60,
		PartitionRate: 1e-4,
		MergeRate:     1e-4,
	})
	total := b.Total()
	if total < 1e4 || total > 1e8 {
		t.Errorf("Ĉtotal = %v hop·bits/s, out of plausible band [1e4, 1e8]", total)
	}
}
