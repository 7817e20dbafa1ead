package mvindex

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mvdb/internal/obdd"
)

// TestWriteDotDrawsTheIndex: the DOT export draws the ¬W the index holds.
// For a sifted index — DBLP at 120 authors and a multi-block fixture — it
// must name exactly Size() nodes, and the OBDD read back from it must be ¬W
// compiled afresh into a manager of the index's (learned) order.
func TestWriteDotDrawsTheIndex(t *testing.T) {
	dblp120, _ := dblpIndex(t, 120)
	_, multi := buildIndex(t, multiAdvMVDB(30, 3))
	for _, c := range []struct {
		name string
		ix   *Index
	}{{"dblp120", dblp120}, {"multiAdv", multi}} {
		ix := c.ix
		if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
			t.Fatal(err)
		}
		if ix.Blocks() < 2 {
			t.Fatalf("%s: %d blocks, want a multi-block index", c.name, ix.Blocks())
		}
		var buf bytes.Buffer
		if err := ix.WriteDot(&buf); err != nil {
			t.Fatal(err)
		}
		order := ix.Manager().Order()
		dm, droot, nodes := readDot(t, buf.String(), order)
		if nodes != ix.Size() {
			t.Errorf("%s: DOT names %d nodes, index has %d", c.name, nodes, ix.Size())
		}
		tr := ix.Translation()
		m := obdd.NewManager(order)
		fW, _, err := obdd.CompileWith(m, tr.DB, tr.W, obdd.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !obdd.StructEqual(dm, droot, m, m.Not(fW)) {
			t.Errorf("%s: the drawn OBDD is not ¬W compiled under the index's order", c.name)
		}
	}
}

// readDot rebuilds the OBDD an obdd WriteDot export draws, in a fresh
// manager of the given order, and counts its internal nodes. The root is the
// one node no edge points to.
func readDot(t *testing.T, dot string, order []int) (*obdd.Manager, obdd.NodeID, int) {
	t.Helper()
	m := obdd.NewManager(order)
	vars := map[string]int{}
	lo, hi := map[string]string{}, map[string]string{}
	target := map[string]bool{}
	for _, line := range strings.Split(dot, "\n") {
		line = strings.TrimSpace(line)
		var from, to string
		var v int
		switch {
		case strings.HasPrefix(line, "n") && strings.Contains(line, "[label="):
			if _, err := fmt.Sscanf(line, "%s [label=\"x%d\"];", &from, &v); err != nil {
				t.Fatalf("node line %q: %v", line, err)
			}
			vars[from] = v
		case strings.HasPrefix(line, "n") && strings.Contains(line, " -> "):
			dashed := strings.HasSuffix(line, "[style=dashed];")
			line = strings.TrimSuffix(strings.TrimSuffix(line, " [style=dashed];"), ";")
			from, to, _ = strings.Cut(line, " -> ")
			if dashed {
				lo[from] = to
			} else {
				hi[from] = to
			}
			target[to] = true
		}
	}
	built := map[string]obdd.NodeID{"f": obdd.False, "t": obdd.True}
	var build func(n string) obdd.NodeID
	build = func(n string) obdd.NodeID {
		if id, ok := built[n]; ok {
			return id
		}
		v, ok := vars[n]
		if !ok {
			t.Fatalf("edge to undeclared node %s", n)
		}
		id := m.MkNode(int32(m.Level(v)), build(lo[n]), build(hi[n]))
		built[n] = id
		return id
	}
	root := obdd.False
	roots := 0
	for n := range vars {
		if !target[n] {
			root = build(n)
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("DOT has %d nodes without a parent, want one root", roots)
	}
	return m, root, len(vars)
}
