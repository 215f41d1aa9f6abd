// Command figures regenerates the paper's evaluation figures (2-5) as text
// tables or CSV, and validates their qualitative shape against the paper's
// claims.
//
// Usage:
//
//	figures [-fig 2|3|4|5|all] [-n 100] [-csv] [-check]
//
// With the paper's full N=100 the four figures and their -check take
// well under a second (about 0.1 s on two shared x86-64 vCPUs); smaller
// -n values give the same shapes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, or all")
	nFlag := flag.Int("n", 100, "initial group size N")
	csvFlag := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	checkFlag := flag.Bool("check", false, "validate figure shapes against the paper's claims")
	baselinesFlag := flag.Bool("baselines", false, "also print the no-IDS / host-only / voting comparison")
	statsFlag := flag.Bool("enginestats", false, "print evaluation-engine cache statistics on exit")
	versionFlag := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println(obs.VersionString("figures"))
		return
	}
	if *statsFlag {
		cli.EnableEngineStats()
	}

	cfg := repro.DefaultConfig()
	cfg.N = *nFlag

	if *baselinesFlag {
		table, err := repro.Baselines(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			cli.Exit(1)
		}
		if err := table.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			cli.Exit(1)
		}
		fmt.Println()
	}

	figs, err := selectFigures(cfg, *figFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		cli.Exit(1)
	}
	for _, f := range figs {
		var werr error
		if *csvFlag {
			werr = f.WriteCSV(os.Stdout)
		} else {
			werr = f.WriteTable(os.Stdout)
			fmt.Println()
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "figures:", werr)
			cli.Exit(1)
		}
	}
	if *checkFlag {
		failed := false
		for _, c := range repro.CheckFigures(figs) {
			fmt.Println(c)
			if !c.OK() {
				failed = true
			}
		}
		if failed {
			cli.Exit(2)
		}
	}
	cli.Exit(0)
}

func selectFigures(cfg repro.Config, which string) ([]*repro.Figure, error) {
	switch which {
	case "all":
		return repro.Figures(cfg)
	case "2":
		f, err := repro.Figure2(cfg)
		return []*repro.Figure{f}, err
	case "3":
		f, err := repro.Figure3(cfg)
		return []*repro.Figure{f}, err
	case "4":
		f, err := repro.Figure4(cfg)
		return []*repro.Figure{f}, err
	case "5":
		f, err := repro.Figure5(cfg)
		return []*repro.Figure{f}, err
	default:
		return nil, fmt.Errorf("unknown figure %q (want 2, 3, 4, 5, or all)", which)
	}
}
