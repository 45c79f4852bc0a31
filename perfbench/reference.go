package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// benchRef is BENCH_10.json's fleet-stream/mixed-256 entry: the streamed
// 256-process fleet recovered at seed 20100413, every figure modeled at the
// canonical width. The fleet warm-up runs exactly that experiment.
var benchRef = map[string]float64{
	"index-entries":        256,
	"index-skipped":        0,
	"population":           256,
	"prologue-s":           0.000044,
	"serial-s":             416.05373144,
	"tier0-first-resume-s": 60.000144271,
	"tier0-p50-s":          165.000202936,
	"tier0-p95-s":          270.000261601,
	"tier0-p99-s":          277.000265512,
	"tier0-procs":          32,
	"tier0-requests-lost":  1078400,
	"tier1-first-resume-s": 283.000921006,
	"tier1-p50-s":          469.02129172,
	"tier1-p95-s":          469.02143032,
	"tier1-p99-s":          469.02144292,
	"tier1-procs":          96,
	"tier1-requests-lost":  2102466,
	"tier2-first-resume-s": 469.02144544,
	"tier2-p50-s":          469.02161252,
	"tier2-p95-s":          469.02176344,
	"tier2-p99-s":          469.02177404,
	"tier2-procs":          128,
	"tier2-requests-lost":  300160,
}

// checkFleetReference compares a fleet record with benchRef and returns
// the differing figures ("" when all agree to the nanosecond).
func checkFleetReference(r rec) string {
	got := map[string]float64{
		"index-entries": float64(r.indexUsed),
		"index-skipped": float64(r.indexSkipped),
		"population":    float64(r.candidates),
		"prologue-s":    r.prologue.Seconds(),
		"serial-s":      r.passDuration.Seconds(),
	}
	for _, st := range r.tiers {
		if !st.HasPercentiles {
			continue
		}
		p := fmt.Sprintf("tier%d-", st.Tier)
		got[p+"first-resume-s"] = st.FirstResume.Seconds()
		got[p+"p50-s"] = st.P50.Seconds()
		got[p+"p95-s"] = st.P95.Seconds()
		got[p+"p99-s"] = st.P99.Seconds()
		got[p+"procs"] = float64(st.Procs)
		got[p+"requests-lost"] = float64(st.RequestsLost)
	}
	var diffs []string
	for _, k := range sortedKeys(benchRef) {
		want := benchRef[k]
		g, ok := got[k]
		if !ok || math.Abs(g-want) > float64(time.Nanosecond)/float64(time.Second) {
			diffs = append(diffs, fmt.Sprintf("%s=%v want %v", k, g, want))
		}
	}
	return strings.Join(diffs, ", ")
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
