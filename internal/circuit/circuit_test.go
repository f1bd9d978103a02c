package circuit

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// buildC17 constructs the ISCAS85 C17 circuit used throughout the paper's
// running example (figures 3-5): six NAND gates g1..g6, inputs I1..I5.
func buildC17(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("c17")
	for _, in := range []string{"I1", "I2", "I3", "I4", "I5"} {
		b.AddInput(in)
	}
	b.AddGate("g1", Nand, "I1", "I3")
	b.AddGate("g2", Nand, "I3", "I4")
	b.AddGate("g3", Nand, "I2", "g2")
	b.AddGate("g4", Nand, "g2", "I5")
	b.AddGate("g5", Nand, "g1", "g3")
	b.AddGate("g6", Nand, "g3", "g4")
	b.MarkOutput("g5").MarkOutput("g6")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuildC17(t *testing.T) {
	c := buildC17(t)
	if got := c.NumGates(); got != 11 {
		t.Errorf("NumGates = %d, want 11", got)
	}
	if got := c.NumLogicGates(); got != 6 {
		t.Errorf("NumLogicGates = %d, want 6", got)
	}
	if got := len(c.Inputs); got != 5 {
		t.Errorf("len(Inputs) = %d, want 5", got)
	}
	if got := len(c.Outputs); got != 2 {
		t.Errorf("len(Outputs) = %d, want 2", got)
	}
	g5, ok := c.GateByName("g5")
	if !ok {
		t.Fatal("g5 not found")
	}
	if !c.IsOutput(g5.ID) {
		t.Error("g5 should be a primary output")
	}
	g1, _ := c.GateByName("g1")
	if c.IsOutput(g1.ID) {
		t.Error("g1 should not be a primary output")
	}
	for id := range c.Gates {
		name := c.Gates[id].Name
		want := name == "g5" || name == "g6"
		if got := c.IsOutput(id); got != want {
			t.Errorf("IsOutput(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestIsOutputWithoutBuilder(t *testing.T) {
	// A hand-assembled literal has no output mask and must still answer.
	c := &Circuit{
		Gates: []Gate{
			{ID: 0, Name: "in", Type: Input, Fanout: []int{1}},
			{ID: 1, Name: "g", Type: Not, Fanin: []int{0}},
		},
		Inputs:  []int{0},
		Outputs: []int{1},
	}
	if c.IsOutput(0) || !c.IsOutput(1) {
		t.Errorf("IsOutput = [%v %v], want [false true]", c.IsOutput(0), c.IsOutput(1))
	}
}

func TestGateTypeEval(t *testing.T) {
	cases := []struct {
		typ  GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Buf, []bool{false}, false},
		{Not, []bool{true}, false},
		{Not, []bool{false}, true},
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{true, false}, true},
		{Xor, []bool{true, true}, false},
		{Xor, []bool{true, true, true}, true},
		{Xnor, []bool{true, false}, false},
		{Xnor, []bool{true, true}, true},
		{And, []bool{true, true, true, false}, false},
		{Or, []bool{false, false, false, true}, true},
	}
	for _, tc := range cases {
		if got := tc.typ.Eval(tc.in); got != tc.want {
			t.Errorf("%v.Eval(%v) = %v, want %v", tc.typ, tc.in, got, tc.want)
		}
	}
}

func TestGateTypeString(t *testing.T) {
	for typ, want := range map[GateType]string{
		Input: "INPUT", Nand: "NAND", Xnor: "XNOR", Buf: "BUF",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), got, want)
		}
	}
	if got := GateType(99).String(); got != "GateType(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseGateType(t *testing.T) {
	for s, want := range map[string]GateType{
		"NAND": Nand, "nand": Nand, "Nor": Nor, "BUFF": Buf, "buf": Buf,
		"inv": Not, "NOT": Not, "and": And, "or": Or, "xor": Xor, "XNOR": Xnor,
		"input": Input,
	} {
		got, ok := ParseGateType(s)
		if !ok || got != want {
			t.Errorf("ParseGateType(%q) = %v,%v, want %v,true", s, got, ok, want)
		}
	}
	if _, ok := ParseGateType("MUX"); ok {
		t.Error("ParseGateType(MUX) should fail")
	}
}

func TestInverting(t *testing.T) {
	inverting := map[GateType]bool{
		Not: true, Nand: true, Nor: true, Xnor: true,
		Buf: false, And: false, Or: false, Xor: false, Input: false,
	}
	for typ, want := range inverting {
		if got := typ.Inverting(); got != want {
			t.Errorf("%v.Inverting() = %v, want %v", typ, got, want)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	c := buildC17(t)
	order := c.TopoOrder()
	if len(order) != c.NumGates() {
		t.Fatalf("order length %d, want %d", len(order), c.NumGates())
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if pos[f] >= pos[i] {
				t.Errorf("gate %s at %d before fanin %s at %d",
					c.Gates[i].Name, pos[i], c.Gates[f].Name, pos[f])
			}
		}
	}
}

func TestLevels(t *testing.T) {
	c := buildC17(t)
	lv := c.Levels()
	want := map[string]int{
		"I1": 0, "I2": 0, "I3": 0, "I4": 0, "I5": 0,
		"g1": 1, "g2": 1, "g3": 2, "g4": 2, "g5": 3, "g6": 3,
	}
	for name, wl := range want {
		g, _ := c.GateByName(name)
		if lv[g.ID] != wl {
			t.Errorf("level(%s) = %d, want %d", name, lv[g.ID], wl)
		}
	}
	if d := c.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
}

func TestNeighbors(t *testing.T) {
	c := buildC17(t)
	// g3 fans in from I2 (input, excluded) and g2; fans out to g5, g6.
	g3, _ := c.GateByName("g3")
	g2, _ := c.GateByName("g2")
	g5, _ := c.GateByName("g5")
	g6, _ := c.GateByName("g6")
	got := c.Neighbors(g3.ID)
	want := []int{g2.ID, g5.ID, g6.ID}
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(g3) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(g3) = %v, want %v", got, want)
		}
	}
}

func TestBoundedDistances(t *testing.T) {
	c := buildC17(t)
	g1, _ := c.GateByName("g1")
	g6, _ := c.GateByName("g6")
	dist := c.BoundedDistances(g1.ID, 10)
	// g1 -> g5 (1 hop), g5 -> g3 (2), g3 -> g2,g6 (3)
	g5, _ := c.GateByName("g5")
	g3, _ := c.GateByName("g3")
	if dist[g5.ID] != 1 {
		t.Errorf("dist(g1,g5) = %d, want 1", dist[g5.ID])
	}
	if dist[g3.ID] != 2 {
		t.Errorf("dist(g1,g3) = %d, want 2", dist[g3.ID])
	}
	if dist[g6.ID] != 3 {
		t.Errorf("dist(g1,g6) = %d, want 3", dist[g6.ID])
	}
	// With a tight cap, far gates must be absent.
	dist1 := c.BoundedDistances(g1.ID, 1)
	if _, ok := dist1[g6.ID]; ok {
		t.Error("g6 should be unreachable within 1 hop of g1")
	}
	if dist1[g1.ID] != 0 {
		t.Error("distance to self should be 0")
	}
}

func TestFaninCone(t *testing.T) {
	c := buildC17(t)
	g5, _ := c.GateByName("g5")
	cone := c.FaninCone(g5.ID)
	for _, name := range []string{"g5", "g1", "g3", "g2", "I1", "I2", "I3", "I4"} {
		g, _ := c.GateByName(name)
		if !cone[g.ID] {
			t.Errorf("%s should be in fanin cone of g5", name)
		}
	}
	for _, name := range []string{"I5", "g4", "g6"} {
		g, _ := c.GateByName(name)
		if cone[g.ID] {
			t.Errorf("%s should not be in fanin cone of g5", name)
		}
	}
}

func TestComputeStats(t *testing.T) {
	c := buildC17(t)
	s := c.ComputeStats()
	if s.LogicGates != 6 || s.Inputs != 5 || s.Outputs != 2 || s.Depth != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.ByType[Nand] != 6 {
		t.Errorf("ByType[Nand] = %d, want 6", s.ByType[Nand])
	}
	if s.MaxFanin != 2 {
		t.Errorf("MaxFanin = %d, want 2", s.MaxFanin)
	}
	// I3 drives g1 and g2; g2 drives g3 and g4; g3 drives g5 and g6.
	if s.MaxFanout != 2 {
		t.Errorf("MaxFanout = %d, want 2", s.MaxFanout)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate gate", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").AddInput("a").Build()
		if err == nil {
			t.Error("want error for duplicate gate")
		}
	})
	t.Run("unknown fanin", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").
			AddGate("g", Not, "missing").MarkOutput("g").Build()
		if err == nil {
			t.Error("want error for unknown fanin")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").
			AddGate("g", Nand, "a", "g").MarkOutput("g").Build()
		if err == nil {
			t.Error("want error for self loop")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").
			AddGate("g1", Nand, "a", "g2").
			AddGate("g2", Nand, "a", "g1").
			MarkOutput("g1").Build()
		if err == nil {
			t.Error("want error for combinational cycle")
		}
	})
	t.Run("no outputs", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").AddGate("g", Not, "a").Build()
		if err == nil {
			t.Error("want error for missing outputs")
		}
	})
	t.Run("no inputs", func(t *testing.T) {
		_, err := NewBuilder("x").Build()
		if err == nil {
			t.Error("want error for empty circuit")
		}
	})
	t.Run("output names unknown net", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").AddGate("g", Not, "a").
			MarkOutput("nope").Build()
		if err == nil {
			t.Error("want error for unknown output net")
		}
	})
	t.Run("duplicate output", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").AddGate("g", Not, "a").
			MarkOutput("g").MarkOutput("g").Build()
		if err == nil {
			t.Error("want error for duplicate output")
		}
	})
	t.Run("input as gate", func(t *testing.T) {
		b := NewBuilder("x")
		b.AddGate("g", Input, "a")
		if _, err := b.Build(); err == nil {
			t.Error("want error for AddGate(Input)")
		}
	})
	t.Run("not with two fanins", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").AddInput("b").
			AddGate("g", Not, "a", "b").MarkOutput("g").Build()
		if err == nil {
			t.Error("want error for NOT with 2 fanins")
		}
	})
	t.Run("and with one fanin", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("a").
			AddGate("g", And, "a").MarkOutput("g").Build()
		if err == nil {
			t.Error("want error for AND with 1 fanin")
		}
	})
	t.Run("empty name", func(t *testing.T) {
		_, err := NewBuilder("x").AddInput("").Build()
		if err == nil {
			t.Error("want error for empty name")
		}
	})
}

// randomDAG builds a random valid circuit for property tests.
func randomDAG(rng *rand.Rand, nIn, nGates int) *Circuit {
	b := NewBuilder("rand")
	names := make([]string, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		n := "i" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddInput(n)
		names = append(names, n)
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor, Not, Buf}
	for i := 0; i < nGates; i++ {
		n := "g" + itoa(i)
		typ := types[rng.Intn(len(types))]
		k := 2
		if typ == Not || typ == Buf {
			k = 1
		} else if rng.Intn(3) == 0 {
			k = 3
		}
		if k > len(names) {
			k = len(names)
			if k > 1 && (typ == Not || typ == Buf) {
				k = 1
			}
		}
		fan := make([]string, 0, k)
		seen := map[string]bool{}
		for len(fan) < k {
			cand := names[rng.Intn(len(names))]
			if !seen[cand] {
				seen[cand] = true
				fan = append(fan, cand)
			}
		}
		if (typ == Not || typ == Buf) && len(fan) != 1 {
			fan = fan[:1]
		}
		if typ != Not && typ != Buf && len(fan) < 2 {
			typ = Buf
			fan = fan[:1]
		}
		b.AddGate(n, typ, fan...)
		names = append(names, n)
	}
	b.MarkOutput("g" + itoa(nGates-1))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// Property: in any randomly generated circuit, levels respect fanin order
// and topological order contains each gate exactly once.
func TestRandomCircuitInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, 3+rng.Intn(5), 5+rng.Intn(40))
		lv := c.Levels()
		for i := range c.Gates {
			for _, f := range c.Gates[i].Fanin {
				if lv[f] >= lv[i] {
					return false
				}
			}
		}
		seen := map[int]bool{}
		for _, id := range c.TopoOrder() {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == c.NumGates()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: BoundedDistances is symmetric (undirected graph) for random
// gate pairs.
func TestBoundedDistancesSymmetric(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, 4, 10+rng.Intn(30))
		logic := c.LogicGates()
		a := logic[rng.Intn(len(logic))]
		b := logic[rng.Intn(len(logic))]
		da := c.BoundedDistances(a, c.NumGates())
		db := c.BoundedDistances(b, c.NumGates())
		va, oka := da[b]
		vb, okb := db[a]
		if oka != okb {
			return false
		}
		return !oka || va == vb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	c := buildC17(t)
	want := "c17: 5 inputs, 2 outputs, 6 gates, depth 3"
	if got := c.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
