package engine

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
)

// Fingerprint returns a canonical cache key for a configuration: two
// Configs that evaluate to bit-identical Results map to the same key even
// when they differ syntactically. Canonicalization covers the two
// derived/ignored axes of core.Config:
//
//   - MaxStates: 0 and the explicit default bound are the same exploration,
//   - Cost: a nil Cost and an explicit *cost.Params equal to the patched
//     defaults are the same cost model (both fingerprint through
//     Config.EffectiveCost).
//
// Config.Parallelism and Config.Solver are deliberately omitted.
// Parallelism has no effect at all, and every solver backend converges to
// the same 1e-12 relative residual, so configurations differing only in
// these fields evaluate to identical Results (to solver tolerance) and
// must share cache entries (pinned by TestFingerprintIgnoresParallelism
// and TestFingerprintIgnoresSolver).
//
// The key is the unpadded base64url form of a fixed binary layout (see
// fingerprintKey): floats as their exact IEEE-754 bits, so no two distinct
// parameterizations collide, and the default cost model as one marker
// byte. A default configuration's key is 155 characters. It is built in
// stack buffers and copied out once: one allocation per call.
func Fingerprint(cfg core.Config) string {
	var raw [maxKeyBytes]byte
	b := fingerprintKey(raw[:0], cfg)
	var out [maxKeyLen]byte
	n := base64.RawURLEncoding.EncodedLen(len(b))
	base64.RawURLEncoding.Encode(out[:n], b)
	return string(out[:n])
}

// Key layout bounds: a varint takes at most 10 bytes, and unpadded base64
// spends 4 characters per 3 bytes. maxKeyLen bounds every Fingerprint.
const (
	costBytes   = 11*8 + 2*binary.MaxVarintLen64
	maxKeyBytes = 13*8 + 8*binary.MaxVarintLen64 + 2 + costBytes
	maxKeyLen   = (maxKeyBytes*8 + 5) / 6
)

// Cost markers: the effective cost equals the one the config's own rates
// derive (a nil Cost, or an explicit one spelling out the same values), or
// the 13 cost fields follow.
const (
	costDerived  = 0
	costExplicit = 1
)

// fingerprintKey appends cfg's binary key to b: every field of core.Config
// but Parallelism and Solver in declaration order (TestFingerprintCoversConfig
// pins the field count so a new field cannot be forgotten here silently),
// with the effective MaxStates and the cost marker in Cost's place at the
// end. Floats are 8 little-endian bytes of their bits, ints signed
// varints, the bool one byte, so the layout is self-delimiting and
// decodes back to the canonical fields (the test inverse does).
func fingerprintKey(b []byte, cfg core.Config) []byte {
	b = binary.AppendVarint(b, int64(cfg.Protocol))
	b = binary.AppendVarint(b, int64(cfg.N))
	b = binary.AppendVarint(b, int64(cfg.Attacker))
	b = binary.AppendVarint(b, int64(cfg.Detection))
	b = appendFloat(b, cfg.LambdaC)
	b = appendFloat(b, cfg.TIDS)
	b = appendFloat(b, cfg.ShapeP)
	b = binary.AppendVarint(b, int64(cfg.M))
	b = appendFloat(b, cfg.P1)
	b = appendFloat(b, cfg.P2)
	b = appendFloat(b, cfg.LambdaQ)
	b = appendFloat(b, cfg.JoinRate)
	b = appendFloat(b, cfg.LeaveRate)
	b = appendFloat(b, cfg.BandwidthBps)
	b = binary.AppendVarint(b, int64(cfg.GDHElementBits))
	b = appendFloat(b, cfg.PartitionRate)
	b = appendFloat(b, cfg.MergeRate)
	b = binary.AppendVarint(b, int64(cfg.MaxGroups))
	b = appendFloat(b, cfg.MeanHops)
	b = appendFloat(b, cfg.MeanDegree)
	if cfg.ExplicitEviction {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(cfg.EffectiveMaxStates()))

	if cfg.Cost == nil {
		return append(b, costDerived)
	}
	at := len(b)
	b = appendCost(append(b, costExplicit), *cfg.Cost)
	derived := cfg
	derived.Cost = nil
	var scratch [costBytes]byte
	if bytes.Equal(b[at+1:], appendCost(scratch[:0], derived.EffectiveCost())) {
		b = append(b[:at], costDerived)
	}
	return b
}

func appendCost(b []byte, p cost.Params) []byte {
	b = appendFloat(b, p.PacketBits)
	b = appendFloat(b, p.StatusBits)
	b = appendFloat(b, p.StatusRate)
	b = appendFloat(b, p.VoteBits)
	b = appendFloat(b, p.BeaconBits)
	b = appendFloat(b, p.BeaconRate)
	b = binary.AppendVarint(b, int64(p.GDHElementBits))
	b = appendFloat(b, p.MeanHops)
	b = appendFloat(b, p.MeanDegree)
	b = appendFloat(b, p.LambdaQ)
	b = appendFloat(b, p.JoinRate)
	b = appendFloat(b, p.LeaveRate)
	return binary.AppendVarint(b, int64(p.M))
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
