package main

import (
	"fmt"
	"os"
)

// Verdicts of `bench compare`, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the runs' own spread is wider than the bound
)

type comparison struct {
	workload, metric string
	unit             string
	bound            float64
	a, b             []float64
	medA, q1A, q3A   float64
	medB, q1B, q3B   float64
	change           float64 // (B-A)/A, positive = B's number is larger
	verdict          string
}

// valuesOf collects one metric of one workload across a file's sets of
// the given seed.
func valuesOf(rf *resultFile, seed int64, workload, name string) []float64 {
	var out []float64
	for _, set := range rf.Sets {
		for _, r := range set {
			if r.Workload != workload || r.Seed != seed {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// judge compares B against baseline A. A metric is worse when B's
// median is worse than A's by more than the bound, better when it is
// better by more than the bound, and unresolved when either side's
// interquartile range, as a share of its median, exceeds the bound: the
// runs then cannot tell a change of that size from noise.
func judge(d metricDef, workload string, a, b []float64) comparison {
	c := comparison{workload: workload, metric: d.name, unit: d.unit, bound: d.bound, a: a, b: b}
	c.medA, c.medB = median(a), median(b)
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	if c.medA != 0 {
		c.change = (c.medB - c.medA) / c.medA
	}
	worsening := c.change
	if d.better == "higher" {
		worsening = -c.change
	}
	spread := func(q1, q3, med float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / med
	}
	switch {
	case d.name == "failed_frac":
		// Must not rise at all.
		c.verdict = verdictSame
		if c.medB > c.medA {
			c.verdict = verdictWorse
		}
	case spread(c.q1A, c.q3A, c.medA) > d.bound || spread(c.q1B, c.q3B, c.medB) > d.bound:
		c.verdict = verdictUnresolved
	case worsening > d.bound:
		c.verdict = verdictWorse
	case worsening < -d.bound:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictSame
	}
	return c
}

// compareFiles judges B against A on the seed of A's first set: runs
// on other seeds (the baseline carries one, to show seed sensitivity)
// measure other inputs and stay out of the medians.
func compareFiles(a, b *resultFile) []comparison {
	var out []comparison
	if len(a.Sets) == 0 || len(a.Sets[0]) == 0 {
		return nil
	}
	seed := a.Sets[0][0].Seed
	for _, s := range specs {
		for _, d := range endToEnd {
			if !d.appliesTo(s.name) {
				continue
			}
			va, vb := valuesOf(a, seed, s.name, d.name), valuesOf(b, seed, s.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			out = append(out, judge(d, s.name, va, vb))
		}
	}
	return out
}

// cmdCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict; it fails on any "worse".
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare: want two result files")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc || a.Host.Seconds != b.Host.Seconds {
		fmt.Fprintf(os.Stderr, "warning: the two results come from different hosts or run lengths (%s x%d %ds vs %s x%d %ds)\n",
			a.Host.CPUModel, a.Host.NProc, a.Host.Seconds, b.Host.CPUModel, b.Host.NProc, b.Host.Seconds)
	}
	cs := compareFiles(a, b)
	fmt.Printf("%-18s %-20s %-6s %4s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "n", "median A", "quartiles A", "median B", "quartiles B", "change", "bound", "verdict")
	worse := 0
	for _, c := range cs {
		fmt.Printf("%-18s %-20s %-6s %2d/%-2d %12.4f %25s %12.4f %25s %+7.1f%% %5.0f%%  %s\n",
			c.workload, c.metric, c.unit, len(c.a), len(c.b),
			c.medA, fmt.Sprintf("[%.4f, %.4f]", c.q1A, c.q3A),
			c.medB, fmt.Sprintf("[%.4f, %.4f]", c.q1B, c.q3B),
			c.change*100, c.bound*100, c.verdict)
		if c.verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("compare: %d metric(s) worse than the baseline by more than their bound", worse)
	}
	return nil
}
