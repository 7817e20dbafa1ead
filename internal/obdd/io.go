package obdd

import "fmt"

// Snapshot is the serializable form of a Manager. Node ids are preserved,
// so NodeID values held by callers remain valid after a round trip.
type Snapshot struct {
	Order []int      // variable order (level -> external id)
	Nodes []SnapNode // all nodes, including both terminals at 0 and 1
}

// SnapNode is one serialized node.
type SnapNode struct {
	Level  int32
	Lo, Hi int32
}

// Snapshot captures the manager's state.
func (m *Manager) Snapshot() Snapshot {
	s := Snapshot{Order: m.Order(), Nodes: make([]SnapNode, len(m.nodes))}
	for i, n := range m.nodes {
		s.Nodes[i] = SnapNode{Level: n.level, Lo: int32(n.lo), Hi: int32(n.hi)}
	}
	return s
}

// Restore rebuilds a Manager from a snapshot, recomputing the unique table
// and per-node span metadata. Node ids are identical to the snapshot's. A
// malformed snapshot — an order with a negative or repeated variable, a
// child that is not strictly deeper than its node — is an error, never a
// panic or a manager out of level order.
func Restore(s Snapshot) (*Manager, error) {
	if len(s.Nodes) < 2 {
		return nil, fmt.Errorf("obdd: snapshot missing terminals")
	}
	m, err := newManager(s.Order)
	if err != nil {
		return nil, err
	}
	for i := 2; i < len(s.Nodes); i++ {
		n := s.Nodes[i]
		if n.Lo < 0 || int(n.Lo) >= i || n.Hi < 0 || int(n.Hi) >= i {
			return nil, fmt.Errorf("obdd: snapshot node %d has forward or invalid children (%d, %d)", i, n.Lo, n.Hi)
		}
		if n.Level < 0 || int(n.Level) >= len(s.Order) {
			return nil, fmt.Errorf("obdd: snapshot node %d has level %d outside the order", i, n.Level)
		}
		if n.Lo == n.Hi {
			return nil, fmt.Errorf("obdd: snapshot node %d is not reduced", i)
		}
		lo, hi := NodeID(n.Lo), NodeID(n.Hi)
		if m.nodes[lo].level <= n.Level || m.nodes[hi].level <= n.Level {
			return nil, fmt.Errorf("obdd: snapshot node %d at level %d has a child that is not deeper", i, n.Level)
		}
		if id, slot := m.unique.lookup(m.nodes, n.Level, lo, hi); id != 0 {
			return nil, fmt.Errorf("obdd: snapshot node %d duplicates an earlier node", i)
		} else if got := m.addNode(n.Level, lo, hi, slot); got != NodeID(i) {
			return nil, fmt.Errorf("obdd: snapshot node %d restored as %d", i, got)
		}
	}
	return m, nil
}
