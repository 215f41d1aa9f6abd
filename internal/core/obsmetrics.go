package core

import "repro/internal/obs"

// The incremental path's structural-fallback counter and the voting-table
// store are process-global (like the ctmc solver counters), so they
// register into the obs Default registry at init and are read at scrape
// time.
func init() {
	r := obs.Default()
	r.CounterFunc("repro_incremental_structural_repreps_total",
		"Incremental-path points that fell back to a full explore+assemble+factor re-prepare.",
		func() float64 { return float64(StructuralRepreps()) })
	r.CounterFunc("repro_vote_tables_built_total",
		"Voting tables filled or grown to a larger N by the process-wide store.",
		func() float64 { built, _ := VoteTableStats(); return float64(built) })
	r.GaugeFunc("repro_vote_table_bytes",
		"Bytes of the voting tables the process-wide store holds.",
		func() float64 { _, bytes := VoteTableStats(); return float64(bytes) })
}
