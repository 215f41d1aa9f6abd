package engine

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/shapes"
)

// fingerprintOracle is the earlier strings.Builder formatter of
// Fingerprint, kept as the byte-for-byte oracle: snapshot keys, the schema
// fingerprint, ring placement and cluster replica keys all depend on the
// exact bytes.
func fingerprintOracle(cfg core.Config) string {
	var b strings.Builder
	b.Grow(256)
	f := func(v float64) {
		b.WriteString(strconv.FormatFloat(v, 'b', -1, 64))
		b.WriteByte('|')
	}
	i := func(v int) {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte('|')
	}
	bo := func(v bool) {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		b.WriteByte('|')
	}
	i(int(cfg.Protocol))
	i(cfg.N)
	i(int(cfg.Attacker))
	i(int(cfg.Detection))
	f(cfg.LambdaC)
	f(cfg.TIDS)
	f(cfg.ShapeP)
	i(cfg.M)
	f(cfg.P1)
	f(cfg.P2)
	f(cfg.LambdaQ)
	f(cfg.JoinRate)
	f(cfg.LeaveRate)
	f(cfg.BandwidthBps)
	i(cfg.GDHElementBits)
	f(cfg.PartitionRate)
	f(cfg.MergeRate)
	i(cfg.MaxGroups)
	f(cfg.MeanHops)
	f(cfg.MeanDegree)
	bo(cfg.ExplicitEviction)
	i(cfg.EffectiveMaxStates())
	p := cfg.EffectiveCost()
	f(p.PacketBits)
	f(p.StatusBits)
	f(p.StatusRate)
	f(p.VoteBits)
	f(p.BeaconBits)
	f(p.BeaconRate)
	i(p.GDHElementBits)
	f(p.MeanHops)
	f(p.MeanDegree)
	f(p.LambdaQ)
	f(p.JoinRate)
	f(p.LeaveRate)
	i(p.M)
	return b.String()
}

// randomFingerprintConfig draws a configuration over every fingerprinted
// field, including negative and extreme values and explicit cost models:
// Fingerprint does not validate.
func randomFingerprintConfig(rng *rand.Rand) core.Config {
	fl := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return -rng.ExpFloat64()
		case 2:
			return math.MaxFloat64 * rng.Float64()
		case 3:
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(9))
		default:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	in := func() int { return rng.Intn(1<<20) - 1<<10 }
	cfg := core.Config{
		Protocol: core.Protocol(rng.Intn(2)), N: in(),
		Attacker: shapes.Kind(rng.Intn(3)), Detection: shapes.Kind(rng.Intn(3)),
		LambdaC: fl(), TIDS: fl(), ShapeP: fl(), M: in(), P1: fl(), P2: fl(), LambdaQ: fl(),
		JoinRate: fl(), LeaveRate: fl(), BandwidthBps: fl(), GDHElementBits: in(),
		PartitionRate: fl(), MergeRate: fl(), MaxGroups: in(), MeanHops: fl(), MeanDegree: fl(),
		ExplicitEviction: rng.Intn(2) == 0, MaxStates: []int{0, core.DefaultMaxStates, in()}[rng.Intn(3)],
		Parallelism: in(), Solver: []string{"", "auto", "gmres"}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		cfg.Cost = &cost.Params{
			PacketBits: fl(), StatusBits: fl(), StatusRate: fl(), VoteBits: fl(),
			BeaconBits: fl(), BeaconRate: fl(), GDHElementBits: in(), MeanHops: fl(),
			MeanDegree: fl(), LambdaQ: fl(), JoinRate: fl(), LeaveRate: fl(), M: in(),
		}
	}
	return cfg
}

// TestFingerprintMatchesOracle pins Fingerprint byte for byte to the
// earlier formatter over a seeded sample of configurations, and to one
// allocation per call.
func TestFingerprintMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cfgs := []core.Config{core.DefaultConfig(), testConfig()}
	for i := 0; i < 2000; i++ {
		cfgs = append(cfgs, randomFingerprintConfig(rng))
	}
	for _, cfg := range cfgs {
		if got, want := Fingerprint(cfg), fingerprintOracle(cfg); got != want {
			t.Fatalf("config %+v:\n got %q\nwant %q", cfg, got, want)
		}
	}
	cfg := core.DefaultConfig()
	if n := testing.AllocsPerRun(100, func() { _ = Fingerprint(cfg) }); n != 1 {
		t.Errorf("Fingerprint allocates %v times per call, want 1", n)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(cfg)
	}
}
