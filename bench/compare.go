package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareFiles prints one row per workload and end-to-end metric, judged by
// the metric's bound, then the per-layer changes beside the workload each is
// predicted to move. It returns errWorse when any gated metric regressed.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	olds := map[string]*result{}
	for _, r := range oldRep.Results {
		olds[r.Workload] = r
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, n := range newRep.Results {
		o, ok := olds[n.Workload]
		if !ok {
			continue
		}
		// A run whose own rounds disagree by more than the bound cannot
		// resolve a change of that size.
		spread := max(quartileSpread(o.RoundBest), quartileSpread(n.RoundBest))
		for _, d := range endToEnd {
			ov, nv := o.Metrics[d.name].Value, n.Metrics[d.name].Value
			change := ratio(nv-ov, ov)
			verdict := "same"
			switch {
			case d.name == "pass_s_best" && spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
			case change > d.bound:
				verdict, worse = "WORSE", true
			case change < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n", n.Workload, d.name, ov, nv, 100*change, 100*d.bound, verdict)
		}
		verdict := "same"
		switch {
		case n.FailFrac > o.FailFrac:
			verdict, worse = "WORSE", true
		case n.FailFrac < o.FailFrac:
			verdict = "better"
		}
		fmt.Fprintf(w, "%-14s %-12s %12.6g %12.6g %8s %6s  %s\n", n.Workload, "fail_frac", o.FailFrac, n.FailFrac, "", "0", verdict)
		if o.OutHash != n.OutHash && oldRep.Env.Seed == newRep.Env.Seed {
			fmt.Fprintf(w, "%-14s la.out_hash changed at the same seed: %s -> %s (rounding order changed)\n", n.Workload, o.OutHash, n.OutHash)
		}
	}
	fmt.Fprintf(w, "\nper-layer metrics (not gated)\n%-14s %-28s %12s %12s %8s  %s\n", "workload", "metric", "old", "new", "change", "predicted to move")
	for _, n := range newRep.Results {
		o, ok := olds[n.Workload]
		if !ok {
			continue
		}
		for _, d := range perLayer {
			om, inOld := o.Metrics[d.name]
			nm, inNew := n.Metrics[d.name]
			if inOld && inNew {
				fmt.Fprintf(w, "%-14s %-28s %12.6g %12.6g %+7.1f%%  %s\n", n.Workload, d.name, om.Value, nm.Value, 100*ratio(nm.Value-om.Value, om.Value), d.moves)
			}
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
