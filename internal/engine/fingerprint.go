package engine

import (
	"strconv"

	"repro/internal/core"
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
// Floats are encoded with exact binary formatting, so no two distinct
// parameterizations collide. The key is built in one stack buffer and
// copied out once: one allocation per call.
func Fingerprint(cfg core.Config) string {
	var buf [768]byte
	b := fingerprintKey(buf[:0], cfg)
	return string(b)
}

// fingerprintKey appends cfg's key to b: every field of core.Config in
// declaration order (TestFingerprintCoversConfig pins the field count so
// a new field cannot be forgotten here silently), then the effective cost
// parameters (canonical whether Cost was nil or given), each followed by
// '|'.
func fingerprintKey(b []byte, cfg core.Config) []byte {
	f := func(b []byte, v float64) []byte { return append(strconv.AppendFloat(b, v, 'b', -1, 64), '|') }
	i := func(b []byte, v int) []byte { return append(strconv.AppendInt(b, int64(v), 10), '|') }
	bo := func(b []byte, v bool) []byte {
		if v {
			return append(b, '1', '|')
		}
		return append(b, '0', '|')
	}

	b = i(b, int(cfg.Protocol))
	b = i(b, cfg.N)
	b = i(b, int(cfg.Attacker))
	b = i(b, int(cfg.Detection))
	b = f(b, cfg.LambdaC)
	b = f(b, cfg.TIDS)
	b = f(b, cfg.ShapeP)
	b = i(b, cfg.M)
	b = f(b, cfg.P1)
	b = f(b, cfg.P2)
	b = f(b, cfg.LambdaQ)
	b = f(b, cfg.JoinRate)
	b = f(b, cfg.LeaveRate)
	b = f(b, cfg.BandwidthBps)
	b = i(b, cfg.GDHElementBits)
	b = f(b, cfg.PartitionRate)
	b = f(b, cfg.MergeRate)
	b = i(b, cfg.MaxGroups)
	b = f(b, cfg.MeanHops)
	b = f(b, cfg.MeanDegree)
	b = bo(b, cfg.ExplicitEviction)
	b = i(b, cfg.EffectiveMaxStates())

	p := cfg.EffectiveCost()
	b = f(b, p.PacketBits)
	b = f(b, p.StatusBits)
	b = f(b, p.StatusRate)
	b = f(b, p.VoteBits)
	b = f(b, p.BeaconBits)
	b = f(b, p.BeaconRate)
	b = i(b, p.GDHElementBits)
	b = f(b, p.MeanHops)
	b = f(b, p.MeanDegree)
	b = f(b, p.LambdaQ)
	b = f(b, p.JoinRate)
	b = f(b, p.LeaveRate)
	return i(b, p.M)
}
