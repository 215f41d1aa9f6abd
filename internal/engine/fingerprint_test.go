package engine

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/shapes"
)

// fingerprintOracle formats every field the fingerprint covers exactly
// (strconv's 'b' float format is the float's bits), with the effective
// MaxStates and cost: two configurations share an oracle string exactly
// when they must share a cache key.
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

// fingerprintInverse decodes a key back to the canonical configuration it
// stands for: Parallelism and Solver zero, the effective MaxStates, and a
// nil Cost for the derived-cost marker or else the explicit cost.
func fingerprintInverse(key string) (core.Config, error) {
	raw, err := base64.RawURLEncoding.DecodeString(key)
	if err != nil {
		return core.Config{}, err
	}
	r := bytes.NewReader(raw)
	in := func() int {
		v, e := binary.ReadVarint(r)
		if e != nil {
			err = e
		}
		return int(v)
	}
	fl := func() float64 {
		var v uint64
		if e := binary.Read(r, binary.LittleEndian, &v); e != nil {
			err = e
		}
		return math.Float64frombits(v)
	}
	by := func() byte {
		v, e := r.ReadByte()
		if e != nil {
			err = e
		}
		return v
	}
	c := core.Config{
		Protocol: core.Protocol(in()), N: in(), Attacker: shapes.Kind(in()), Detection: shapes.Kind(in()),
		LambdaC: fl(), TIDS: fl(), ShapeP: fl(), M: in(), P1: fl(), P2: fl(), LambdaQ: fl(),
		JoinRate: fl(), LeaveRate: fl(), BandwidthBps: fl(), GDHElementBits: in(),
		PartitionRate: fl(), MergeRate: fl(), MaxGroups: in(), MeanHops: fl(), MeanDegree: fl(),
		ExplicitEviction: by() == 1, MaxStates: in(),
	}
	switch by() {
	case costDerived:
	case costExplicit:
		c.Cost = &cost.Params{
			PacketBits: fl(), StatusBits: fl(), StatusRate: fl(), VoteBits: fl(),
			BeaconBits: fl(), BeaconRate: fl(), GDHElementBits: in(), MeanHops: fl(),
			MeanDegree: fl(), LambdaQ: fl(), JoinRate: fl(), LeaveRate: fl(), M: in(),
		}
	default:
		return core.Config{}, fmt.Errorf("bad cost marker")
	}
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d trailing key bytes", r.Len())
	}
	return c, err
}

// canonicalConfig is the configuration fingerprintInverse must return for
// cfg's key.
func canonicalConfig(cfg core.Config) core.Config {
	c := cfg
	c.Parallelism, c.Solver, c.MaxStates = 0, "", cfg.EffectiveMaxStates()
	if c.Cost != nil {
		derived := cfg
		derived.Cost = nil
		p := *c.Cost
		c.Cost = &p
		if fingerprintOracle(derived) == fingerprintOracle(cfg) {
			c.Cost = nil
		}
	}
	return c
}

// TestFingerprintIsInjective decodes every key of a seeded sample of
// configurations back to its canonical fields, bit for bit: a key that
// determines the fields cannot be shared by two configurations that
// differ in them. It also pins one allocation per call and the key
// length.
func TestFingerprintIsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cfgs := []core.Config{core.DefaultConfig(), testConfig()}
	for i := 0; i < 2000; i++ {
		cfgs = append(cfgs, randomFingerprintConfig(rng))
	}
	spelled := core.DefaultConfig()
	p := spelled.EffectiveCost()
	spelled.Cost = &p
	cfgs = append(cfgs, spelled)
	for _, cfg := range cfgs {
		key := Fingerprint(cfg)
		if len(key) > maxKeyLen {
			t.Fatalf("key of %d characters, bound %d", len(key), maxKeyLen)
		}
		got, err := fingerprintInverse(key)
		if err != nil {
			t.Fatalf("config %+v: key %q: %v", cfg, key, err)
		}
		want := canonicalConfig(cfg)
		if !reflect.DeepEqual(got, want) || fingerprintOracle(got) != fingerprintOracle(want) {
			t.Fatalf("config %+v:\nkey decodes to %+v\nwant          %+v", cfg, got, want)
		}
	}
	cfg := core.DefaultConfig()
	if n := len(Fingerprint(cfg)); n > 160 {
		t.Errorf("default configuration's key has %d characters, want at most 160", n)
	}
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
