// Command mobility calibrates the group dynamics parameters of the SPN
// model — partition rate, merge rate, mean hop count, mean degree — by
// simulating random waypoint mobility, exactly as the paper obtains its
// merge/partition rates ("by simulation for a sufficiently long period of
// time").
//
// Usage:
//
//	mobility [-nodes 100] [-range 250] [-hours 4] [-dt 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/obs"
)

func main() {
	nodes := flag.Int("nodes", 100, "number of nodes")
	radioRange := flag.Float64("range", 250, "radio range (m)")
	hours := flag.Float64("hours", 4, "simulated duration (hours)")
	dt := flag.Float64("dt", 5, "snapshot interval (s)")
	seed := flag.Int64("seed", 1, "RNG seed")
	versionFlag := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(obs.VersionString("mobility"))
		return
	}

	gd, err := repro.CalibrateMobility(repro.CalibrateOpts{
		Nodes:      *nodes,
		RadioRange: *radioRange,
		Duration:   *hours * 3600,
		Dt:         *dt,
		Seed:       *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobility:", err)
		os.Exit(1)
	}
	fmt.Printf("calibration over %.1f h (%d snapshots, %d nodes, %.0f m range):\n",
		gd.Duration/3600, gd.Samples, *nodes, *radioRange)
	fmt.Printf("  partition rate: %.4g /s  (one partition per %.3g s)\n", gd.PartitionRate, safeInv(gd.PartitionRate))
	fmt.Printf("  merge rate:     %.4g /s  (one merge per %.3g s)\n", gd.MergeRate, safeInv(gd.MergeRate))
	fmt.Printf("  mean groups:    %.3f (max %d)\n", gd.MeanGroups, gd.MaxGroups)
	fmt.Printf("  mean hops:      %.3f\n", gd.MeanHops)
	fmt.Printf("  mean degree:    %.2f\n", gd.MeanDegree)
	fmt.Println()
	fmt.Println("patch these into repro.Config via repro.ApplyDynamicsChecked, e.g.")
	fmt.Printf("  cfg.PartitionRate = %.4g\n", gd.PartitionRate)
	fmt.Printf("  cfg.MergeRate     = %.4g\n", gd.MergeRate)
	fmt.Printf("  cfg.MeanHops      = %.3f\n", gd.MeanHops)
	fmt.Printf("  cfg.MeanDegree    = %.2f\n", gd.MeanDegree)
}

func safeInv(x float64) float64 {
	if x == 0 {
		return 0
	}
	return 1 / x
}
