package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// boundsFile is the part of BENCHMARK.json the comparator reads.
type boundsFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords collects the result records in a file of benchmark output
// (any lines that are not records are skipped), grouped by workload in
// file order. Traced records are left out: their timings carry the
// tracing overhead. Records whose checks failed are kept, so that the
// comparison can weigh their failures.
func readRecords(path string) (map[string][]resultRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]resultRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		var r resultRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Metrics == nil || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// verdict compares one metric's runs on one workload. old and new are
// paired by position; the pairs alternate when the side that started
// first swaps from each pair to the next.
type verdict struct {
	oldQ, newQ  [3]float64
	change      float64 // relative change of the median, positive = worse
	regression  bool    // the median worsened by more than the bound
	unresolved  bool    // the parent's own spread is wider than the bound
	pairs, wins int
	alternating bool
	// moreFailures is set when the new side's checks fail on a larger
	// share of its operations than the parent's: it then shows no gain.
	moreFailures bool
	gain         bool
}

// minPairs and winShare are the rule for claiming a gain: at least ten
// alternating pairs, the change winning nine tenths of them, and the
// medians further apart than the parent's own interquartile range.
const (
	minPairs = 10
	winShare = 0.9
)

func judge(old, new []resultRecord, name string, lowerBetter bool, bound float64) verdict {
	var ov, nv []float64
	for _, r := range old {
		ov = append(ov, r.Metrics[name])
	}
	for _, r := range new {
		nv = append(nv, r.Metrics[name])
	}
	var v verdict
	v.oldQ[0], v.oldQ[1], v.oldQ[2] = quartiles(ov)
	v.newQ[0], v.newQ[1], v.newQ[2] = quartiles(nv)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	better := func(a, b float64) bool { return sign*(a-b) < 0 }
	if v.oldQ[1] != 0 {
		v.change = sign * (v.newQ[1] - v.oldQ[1]) / v.oldQ[1]
		v.unresolved = (v.oldQ[2]-v.oldQ[0])/v.oldQ[1] > bound
	}
	v.regression = bound > 0 && v.change > bound
	v.pairs = min(len(ov), len(nv))
	v.alternating = v.pairs >= 2
	for i := 0; i < v.pairs; i++ {
		if better(nv[i], ov[i]) {
			v.wins++
		}
		if i > 0 {
			prevOldFirst := old[i-1].StartedAt.Before(new[i-1].StartedAt)
			if old[i].StartedAt.Before(new[i].StartedAt) == prevOldFirst {
				v.alternating = false
			}
		}
	}
	if v.unresolved {
		// Wider spread than the bound: only a change that beats every
		// parent run in every run counts as resolved.
		all := len(nv) > 0
		for _, n := range nv {
			for _, o := range ov {
				all = all && better(n, o)
			}
		}
		v.unresolved = !all
	}
	oa, of := failures(old)
	na, nf := failures(new)
	v.moreFailures = nf*oa > of*na
	v.gain = !v.moreFailures && v.pairs >= minPairs && v.alternating &&
		float64(v.wins) >= winShare*float64(v.pairs) &&
		sign*(v.newQ[1]-v.oldQ[1]) < 0 && abs(v.newQ[1]-v.oldQ[1]) > v.oldQ[2]-v.oldQ[0]
	return v
}

// failures sums the attempted and failed operations of records.
func failures(recs []resultRecord) (attempted, failed int) {
	for _, r := range recs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints, per workload and end-to-end metric, each side's
// median and quartiles, and flags regressions beyond BENCHMARK.json's
// bounds and gains that meet the pairing rule. It lists every run whose
// checks failed, and fails when the new side fails more often than the
// parent: a faster program that returns wrong results shows no gain.
func runCompare(w io.Writer, boundsPath, oldPath, newPath string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf boundsFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("perfbench: %s: %w", boundsPath, err)
	}
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	nw, err := readRecords(newPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range old {
		if len(nw[wl]) > 0 {
			names = append(names, wl)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("perfbench: no workload has untraced records in both %s and %s", oldPath, newPath)
	}
	sort.Strings(names)
	worse := 0
	for _, wl := range names {
		for _, side := range []struct {
			name string
			recs []resultRecord
		}{{"old", old[wl]}, {"new", nw[wl]}} {
			for _, r := range side.recs {
				if r.Failed > 0 || r.Attempted == 0 {
					fmt.Fprintf(w, "%s: %s run (seed %d) failed %d of %d checked operations\n",
						side.name, wl, r.Seed, r.Failed, r.Attempted)
				}
			}
		}
		oa, of := failures(old[wl])
		na, nf := failures(nw[wl])
		if nf*oa > of*na {
			fmt.Fprintf(w, "%s: the new side fails %d of %d operations, the old %d of %d\n", wl, nf, na, of, oa)
			worse++
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told q1/med/q3\tnew q1/med/q3\tchange\tbound\tpairs\twins\tverdict")
	regressions := 0
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			v := judge(old[wl], nw[wl], m.Name, m.Better == "lower", m.Bound)
			verdict := "no change shown"
			switch {
			case v.regression:
				verdict = "REGRESSION"
				regressions++
			case v.gain:
				verdict = "gain"
			case v.moreFailures:
				verdict = "no gain: more failed checks"
			case v.unresolved:
				verdict = "unresolved (parent spread > bound)"
			}
			if !v.alternating {
				verdict += "; pairs do not alternate"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.1f%%\t%.0f%%\t%d\t%d\t%s\n",
				wl, m.Name, v.oldQ[0], v.oldQ[1], v.oldQ[2], v.newQ[0], v.newQ[1], v.newQ[2],
				100*v.change, 100*m.Bound, v.pairs, v.wins, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var errs []error
	if worse > 0 {
		errs = append(errs, fmt.Errorf("perfbench: %d workload(s) fail more checks than the parent", worse))
	}
	if regressions > 0 {
		errs = append(errs, fmt.Errorf("perfbench: %d metric(s) worsened beyond their bound", regressions))
	}
	return errors.Join(errs...)
}
