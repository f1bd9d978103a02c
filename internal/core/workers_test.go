package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
)

// TestSynthesizeWorkersBitIdentical runs each synthesis sequentially
// (Workers 1), on two workers and on the default pool (Workers 0), each
// under GOMAXPROCS 1, 2 and 4, and requires the exact same result: cost
// vector bits, groups, generations and evaluations. Chain drawing and
// mutation stay on one rand stream whatever the worker count; only the
// pure cost evaluations and start partitions move to the pool.
func TestSynthesizeWorkersBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		size int // start module size, 0 = estimated
		load func() (*circuit.Circuit, error)
		long bool
	}{
		{"c432", 16, func() (*circuit.Circuit, error) { return circuits.ISCAS85Like("c432") }, false},
		{"c1908", 0, func() (*circuit.Circuit, error) { return circuits.ISCAS85Like("c1908") }, true},
		{"rand2k", 40, func() (*circuit.Circuit, error) {
			return circuits.RandomLogic(circuits.Spec{
				Name: "rand2k", Inputs: 120, Outputs: 60, Gates: 2000, Depth: 30, Seed: 5,
			})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.long {
				t.Skip("runs without -short")
			}
			c, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			var ref string
			for _, procs := range []int{1, 2, 4} {
				for _, workers := range []int{1, 2, 0} {
					got := synthesizeUnder(t, c, tc.size, procs, workers)
					if ref == "" {
						ref = got
					} else if got != ref {
						t.Errorf("GOMAXPROCS %d, Workers %d moved the result:\n got  %s\n want %s", procs, workers, got, ref)
					}
				}
			}
		})
	}
}

// synthesizeUnder runs one synthesis at GOMAXPROCS procs, restoring the
// previous setting, and renders its result as a golden line.
func synthesizeUnder(t *testing.T, c *circuit.Circuit, size, procs, workers int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prm := goldenParams(1)
	prm.Workers = workers
	res, err := Synthesize(c, Options{Evolution: &prm, ModuleSize: size})
	if err != nil {
		t.Fatalf("GOMAXPROCS %d, Workers %d: %v", procs, workers, err)
	}
	line, err := json.Marshal(goldenOf(goldenRecord{Circuit: c.Name, Seed: 1, ModuleSize: size}, res))
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}
