package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/relation"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 57, 100, 999, 1000, 1001, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, used := tailQuantile(xs, 0.99)
		if used > 0.99+1/float64(n) {
			t.Errorf("n=%d: used p%g, more than one rank above the asked p99", n, used*100)
		}
		if beyond := n - 1 - int(v); beyond < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it, want ≥ %d", n, used*100, beyond, minBeyond)
		}
		if n >= 1000 && v != xs[int(math.Ceil(0.99*float64(n)))-1] {
			t.Errorf("n=%d: got rank %g, want the p99 once %d samples support it", n, v, n)
		}
		// Below p99, the next rank up would leave fewer than minBeyond.
		if used < 0.99 && n-1-int(v)-1 >= minBeyond {
			t.Errorf("n=%d: p%g is not the highest percentile with %d samples beyond", n, used*100, minBeyond)
		}
	}
	if v, _ := tailQuantile([]float64{1, 2, 3}, 0.99); v != 2 {
		t.Errorf("3 samples: tail %g, want the median 2", v)
	}
	if v := quantile([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("median of 1..4 = %g, want 2 (nearest rank)", v)
	}
}

func TestCheckResponseCatchesPerturbedConfidence(t *testing.T) {
	eng, queries, err := newEngine(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Evaluate(core.Request{User: analystUser, Purpose: analystPurpose, Query: queries[2]})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Withheld) == 0 {
		t.Fatal("want withheld rows to perturb")
	}
	if err := checkResponse(eng.Catalog(), resp); err != nil {
		t.Fatalf("unperturbed response: %v", err)
	}
	row := &resp.Withheld[len(resp.Withheld)-1]
	orig := row.Confidence
	row.Confidence = orig + 1e-6
	if err := checkResponse(eng.Catalog(), resp); err == nil {
		t.Error("a confidence off by 1e-6 passed the check")
	}
	row.Confidence = math.Nextafter(resp.Threshold, 1)
	if err := checkResponse(eng.Catalog(), resp); err == nil {
		t.Error("a withheld row above β passed the check")
	}
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	take := func(s stream, n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	queries := []string{"a", "b", "c", "d"}
	for _, c := range []struct {
		name string
		make func(seed int64) []op
	}{
		{"report", func(seed int64) []op { return take(newReportStream(seed), 400) }},
		{"improve", func(seed int64) []op { return take(newImproveStream(seed), 400) }},
		{"serve", func(seed int64) []op { return serveSchedule(seed, queries, serveRate, 20*time.Second) }},
	} {
		a, b := c.make(7), c.make(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams with seed 7 differ", c.name)
		}
		if reflect.DeepEqual(a, c.make(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", c.name)
		}
	}
}

func TestReportStreamSharesShapesEqually(t *testing.T) {
	s := newReportStream(1)
	counts := map[string]int{}
	for i := 0; i < 4*100; i++ {
		counts[s.next().shape]++
	}
	for _, sh := range reportShapes {
		if counts[sh.name] != 100 {
			t.Errorf("shape %s: %d of 400 requests, want 100", sh.name, counts[sh.name])
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	all := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50},  // overlaps 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
	}
	if got := selfTime(all[0], all, []int32{1, 2, 3}); got != 100-40-10 {
		t.Errorf("self time %d, want %d", got, 100-40-10)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the root of
// the repository, in step with the metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"report", "improve", "serve"}) {
		t.Errorf("workloads %v", names)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i, s := range want {
			if g := got[i]; g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s[%d] = %+v, program reports %+v", what, i, g, s)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestServeCountsRollupFailures drives a short traced serve run: every
// answer must pass its check, and exactly the per-region rollups fail.
func TestServeCountsRollupFailures(t *testing.T) {
	e, err := newServe(1, "..")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	e.mirror = relation.NewConfidenceCache(e.eng.Catalog(), 0)
	schedule := serveSchedule(1, e.queries, serveRate, time.Second)
	tracers := []*tracer{newTracer(time.Now(), 0, 2), newTracer(time.Now(), 1, 2)}
	res := e.openLoop(schedule, tracers[:e.conns], &layerStats{})
	rollups := 0
	for _, o := range schedule {
		if o.shape == "q3" {
			rollups++
		}
	}
	if res.wrong != 0 || res.failed != rollups || rollups == 0 {
		t.Errorf("wrong %d, failed %d, want 0 wrong and the %d rollups failed: %v", res.wrong, res.failed, rollups, res.problems)
	}
	if res.panics != int64(rollups) {
		t.Errorf("%d handler panics logged, want %d", res.panics, rollups)
	}
}
