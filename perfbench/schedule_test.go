package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestServeScheduleRepeatsAndHitsFinishedSpecs(t *testing.T) {
	a, b := serveSchedule(7, 2000), serveSchedule(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	seeds := map[int64]bool{}
	hits := 0
	for i, arr := range a {
		if i > 0 && arr.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if arr.of < 0 {
			if seeds[arr.seed] {
				t.Fatalf("fresh arrival %d reuses seed %d", i, arr.seed)
			}
			seeds[arr.seed] = true
			continue
		}
		hits++
		of := a[arr.of]
		if of.of >= 0 || of.seed != arr.seed || arr.due-of.due < hitMinAge {
			t.Fatalf("hit %d resubmits arrival %d (%+v), want a fresh spec due >= %v earlier", i, arr.of, of, hitMinAge)
		}
	}
	// Over 2000 arrivals, all but those in the first second may hit.
	if share := float64(hits) / float64(len(a)); share < 0.2 || share > 0.3 {
		t.Errorf("hit share %v, want about %v", share, hitShare)
	}
	if rate := float64(len(a)) / a[len(a)-1].due.Seconds(); rate < 0.9*serveRate || rate > 1.1*serveRate {
		t.Errorf("offered rate %v/s, want about %v/s", rate, serveRate)
	}
	if c := serveSchedule(8, 2000); reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
}

func TestSynthScheduleRepeatsThePreviousFreshOp(t *testing.T) {
	ops := synthSchedule(3, 20)
	seeds := map[int64]bool{}
	for i, op := range ops {
		if i%2 == 1 {
			if op.repeat != i-1 {
				t.Fatalf("op %d: repeat=%d, want a repeat of op %d", i, op.repeat, i-1)
			}
			continue
		}
		if op.repeat != -1 || seeds[op.seed] {
			t.Fatalf("op %d: %+v, want a fresh op with a new seed", i, op)
		}
		seeds[op.seed] = true
	}
	if !reflect.DeepEqual(ops, synthSchedule(3, 20)) {
		t.Fatal("same seed gave different ops")
	}
}

// The metric tables here are what BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if g := got[i]; g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
