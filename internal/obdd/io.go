package obdd

import (
	"encoding/gob"
	"fmt"
	"io"
)

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
// and per-node span metadata. Node ids are identical to the snapshot's.
func Restore(s Snapshot) (*Manager, error) {
	if len(s.Nodes) < 2 {
		return nil, fmt.Errorf("obdd: snapshot missing terminals")
	}
	m := NewManager(s.Order)
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
		if id, slot := m.unique.lookup(m.nodes, n.Level, lo, hi); id != 0 {
			return nil, fmt.Errorf("obdd: snapshot node %d duplicates an earlier node", i)
		} else if got := m.addNode(n.Level, lo, hi, slot); got != NodeID(i) {
			return nil, fmt.Errorf("obdd: snapshot node %d restored as %d", i, got)
		}
	}
	return m, nil
}

// Save gob-encodes the snapshot.
func (m *Manager) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m.Snapshot())
}

// ReadManager decodes a manager written by Save.
func ReadManager(r io.Reader) (*Manager, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("obdd: decoding manager: %w", err)
	}
	return Restore(s)
}
