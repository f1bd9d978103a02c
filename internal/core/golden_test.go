package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/evolution"
)

// goldenFile pins the optimizer's output: one JSON record per line, one
// line per (circuit, seed, start module size). A change that moves any of these values
// changes Table 1 and must re-pin the file on purpose, with the
// per-circuit differences declared alongside the change.
const goldenFile = "testdata/golden.jsonl"

// goldenRecord is the part of a synthesis result that must reproduce
// exactly. Floats are hex float bits, so "close" is not equal.
type goldenRecord struct {
	Circuit     string            `json:"circuit"`
	Seed        int64             `json:"seed"`
	ModuleSize  int               `json:"module_size"` // 0: estimated (§4.2)
	Modules     int               `json:"modules"`
	Generations int               `json:"generations"`
	Evaluations int               `json:"evaluations"`
	Groups      string            `json:"groups_sha256"`
	Costs       map[string]string `json:"costs"`
}

// goldenShort lists the circuits the golden test checks under -short.
var goldenShort = map[string]bool{"c17": true, "c432": true}

// goldenParams is the 60-generation / 20-stall budget of the repository
// benchmarks (bench_test.go's benchEvolution, perfbench's synth-c1908).
func goldenParams(seed int64) evolution.Params {
	prm := evolution.DefaultParams()
	prm.MaxGenerations = 60
	prm.StallGenerations = 20
	prm.Seed = seed
	return prm
}

func goldenCircuit(name string) (*circuit.Circuit, error) {
	if name == "c17" {
		return circuits.C17(), nil
	}
	return circuits.ISCAS85Like(name)
}

func hexBits(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func goldenOf(want goldenRecord, res *Result) goldenRecord {
	p := res.Partition
	h := sha256.New()
	for _, g := range p.Groups() {
		fmt.Fprintln(h, g)
	}
	cv := p.Costs()
	return goldenRecord{
		Circuit:     want.Circuit,
		Seed:        want.Seed,
		ModuleSize:  want.ModuleSize,
		Modules:     p.NumModules(),
		Generations: res.Evolution.Generations,
		Evaluations: res.Evolution.Evaluations,
		Groups:      hex.EncodeToString(h.Sum(nil)),
		Costs: map[string]string{
			"LogArea":       hexBits(cv.LogArea),
			"DelayOverhead": hexBits(cv.DelayOverhead),
			"LogSeparation": hexBits(cv.LogSeparation),
			"TestTime":      hexBits(cv.TestTime),
			"Modules":       hexBits(cv.Modules),
			"SensorArea":    hexBits(cv.SensorArea),
			"DBIc":          hexBits(cv.DBIc),
			"DNominal":      hexBits(cv.DNominal),
			"Separation":    strconv.Itoa(cv.Separation),
			"Weighted":      hexBits(p.Cost()),
		},
	}
}

func readGoldens(t *testing.T) []goldenRecord {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []goldenRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r goldenRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenSynthesis re-runs every pinned synthesis and requires the
// exact recorded result. On a mismatch it prints the new line, so a
// deliberate re-pin is a copy of the test output into the golden file.
func TestGoldenSynthesis(t *testing.T) {
	goldens := readGoldens(t)
	if len(goldens) == 0 {
		t.Fatalf("%s holds no records", goldenFile)
	}
	for _, want := range goldens {
		t.Run(fmt.Sprintf("%s/seed%d/size%d", want.Circuit, want.Seed, want.ModuleSize), func(t *testing.T) {
			if testing.Short() && !goldenShort[want.Circuit] {
				t.Skip("long golden; runs without -short")
			}
			c, err := goldenCircuit(want.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			prm := goldenParams(want.Seed)
			res, err := SynthesizeContext(context.Background(), c, Options{Evolution: &prm, ModuleSize: want.ModuleSize})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenOf(want, res)
			gotLine, _ := json.Marshal(got)
			wantLine, _ := json.Marshal(want)
			if string(gotLine) != string(wantLine) {
				t.Errorf("synthesis moved off its golden:\n got  %s\n want %s", gotLine, wantLine)
			}
		})
	}
}
