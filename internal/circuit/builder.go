package circuit

import (
	"fmt"
	"sort"
)

// Builder assembles a Circuit incrementally. Gates may be declared in any
// order; fanins are resolved by name at Build time, so forward references
// are allowed (the ISCAS85 format has them).
type Builder struct {
	name    string
	gates   []protoGate
	outputs []string
	byName  map[string]int
	err     error
}

type protoGate struct {
	name  string
	typ   GateType
	fanin []string
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("circuit %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// AddInput declares a primary input net.
func (b *Builder) AddInput(name string) *Builder {
	return b.add(name, Input, nil)
}

// AddGate declares a logic gate computing typ over the named fanin nets.
func (b *Builder) AddGate(name string, typ GateType, fanin ...string) *Builder {
	if typ == Input {
		b.fail("gate %q: use AddInput for primary inputs", name)
		return b
	}
	if len(fanin) == 0 {
		b.fail("gate %q: no fanin", name)
		return b
	}
	switch typ {
	case Buf, Not:
		if len(fanin) != 1 {
			b.fail("gate %q: %v takes exactly one fanin, got %d", name, typ, len(fanin))
			return b
		}
	default:
		if len(fanin) < 2 {
			b.fail("gate %q: %v takes at least two fanins, got %d", name, typ, len(fanin))
			return b
		}
	}
	return b.add(name, typ, fanin)
}

func (b *Builder) add(name string, typ GateType, fanin []string) *Builder {
	if b.err != nil {
		return b
	}
	if name == "" {
		b.fail("empty gate name")
		return b
	}
	if _, dup := b.byName[name]; dup {
		b.fail("duplicate gate %q", name)
		return b
	}
	b.byName[name] = len(b.gates)
	b.gates = append(b.gates, protoGate{name: name, typ: typ, fanin: fanin})
	return b
}

// MarkOutput declares an existing (or yet to be declared) net as a primary
// output. Marking the same net twice is an error.
func (b *Builder) MarkOutput(name string) *Builder {
	if b.err != nil {
		return b
	}
	for _, o := range b.outputs {
		if o == name {
			b.fail("duplicate output %q", name)
			return b
		}
	}
	b.outputs = append(b.outputs, name)
	return b
}

// Build resolves names, validates the netlist (known fanins, at least one
// input and one output, acyclic, no floating logic gate driving nothing
// and driven by nothing) and returns the immutable Circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.gates) == 0 {
		return nil, fmt.Errorf("circuit %q: no gates", b.name)
	}
	c := &Circuit{
		Name:   b.name,
		Gates:  make([]Gate, len(b.gates)),
		byName: make(map[string]int, len(b.gates)),
	}
	for id, pg := range b.gates {
		c.byName[pg.name] = id
		c.Gates[id] = Gate{ID: id, Name: pg.name, Type: pg.typ}
		if pg.typ == Input {
			c.Inputs = append(c.Inputs, id)
		}
	}
	for id, pg := range b.gates {
		for _, fn := range pg.fanin {
			fid, ok := c.byName[fn]
			if !ok {
				return nil, fmt.Errorf("circuit %q: gate %q: unknown fanin %q", b.name, pg.name, fn)
			}
			if fid == id {
				return nil, fmt.Errorf("circuit %q: gate %q drives itself", b.name, pg.name)
			}
			c.Gates[id].Fanin = append(c.Gates[id].Fanin, fid)
			c.Gates[fid].Fanout = append(c.Gates[fid].Fanout, id)
		}
	}
	for id := range c.Gates {
		sort.Ints(c.Gates[id].Fanout)
		c.Gates[id].Fanout = dedupSorted(c.Gates[id].Fanout)
	}
	for _, on := range b.outputs {
		oid, ok := c.byName[on]
		if !ok {
			return nil, fmt.Errorf("circuit %q: OUTPUT names unknown net %q", b.name, on)
		}
		c.Outputs = append(c.Outputs, oid)
	}
	c.outMask = make([]bool, len(c.Gates))
	for _, o := range c.Outputs {
		c.outMask[o] = true
	}
	if len(c.Inputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no primary inputs", b.name)
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("circuit %q: no primary outputs", b.name)
	}
	if err := c.checkAcyclic(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkAcyclic verifies the netlist is a DAG via Kahn's algorithm and
// names one gate on a cycle if not.
func (c *Circuit) checkAcyclic() error {
	indeg := make([]int, len(c.Gates))
	for i := range c.Gates {
		indeg[i] = len(c.Gates[i].Fanin)
	}
	queue := make([]int, 0, len(c.Gates))
	for i := range c.Gates {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		seen++
		for _, f := range c.Gates[g].Fanout {
			indeg[f]--
			if indeg[f] == 0 {
				queue = append(queue, f)
			}
		}
	}
	if seen != len(c.Gates) {
		for i := range c.Gates {
			if indeg[i] > 0 {
				return fmt.Errorf("circuit %q: combinational cycle through gate %q", c.Name, c.Gates[i].Name)
			}
		}
	}
	return nil
}
