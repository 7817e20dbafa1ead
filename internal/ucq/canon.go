package ucq

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// This file implements canonical query fingerprints: a 128-bit hash that is
// invariant under variable renaming, atom reordering within a conjunct,
// predicate reordering, disjunct reordering (and duplication), and the
// query's name — and that separates queries differing in any other way
// (relations, constants, join structure, head positions), up to 128-bit hash
// collisions.
//
// The scheme is sound by construction: a query is canonicalized by choosing
// one concrete renaming of its variables to v0, v1, ... and serializing the
// renamed, sorted query; two queries share a serialization only if each is
// isomorphic to the query the serialization spells out, hence to each other.
// Completeness (isomorphic queries always share a serialization) is achieved
// with color refinement over the variables plus a bounded
// individualize-and-refine search that picks the lexicographically least
// serialization; on pathologically symmetric conjuncts the search is capped
// (canonSearchCap leaves) and falls back to the first complete naming, which
// can only cost cache hits, never correctness.

// Fingerprint is a 128-bit canonical query hash (see the file comment). The
// zero Fingerprint is never produced by Fingerprint computations and can be
// used as a sentinel.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether the fingerprint is the zero sentinel.
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// canonSearchCap bounds the number of complete variable namings the
// canonical search may explore per conjunct. 5040 = 7! keeps conjuncts with
// up to seven mutually symmetric variables exactly canonical.
const canonSearchCap = 5040

// headRel is the reserved pseudo-relation that pins head-variable positions
// during canonicalization. It cannot clash with parsed or user relations
// (names never contain NUL).
const headRel = "\x00head"

// FingerprintQuery returns the canonical fingerprint of a named query. The
// query's name never enters the hash; its head arity and the positions at
// which head variables occur do.
func FingerprintQuery(q *Query) Fingerprint {
	ss := canonDisjunctStrings(q.UCQ, q.Head)
	ss = append(ss, fmt.Sprintf("\x00H%d", len(q.Head)))
	return fingerprintStrings(ss)
}

// canonDisjunctStrings canonicalizes every disjunct (with the head variables
// pinned through a pseudo-atom when head is non-nil), sorts and dedups the
// serializations.
func canonDisjunctStrings(u UCQ, head []string) []string {
	ss := make([]string, 0, len(u.Disjuncts))
	for _, d := range u.Disjuncts {
		_, s := canonicalCQ(d, head)
		ss = append(ss, s)
	}
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func fingerprintStrings(ss []string) Fingerprint {
	h := fnv.New128a()
	for _, s := range ss {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	var sum [16]byte
	h.Sum(sum[:0])
	fp := Fingerprint{
		Hi: binary.BigEndian.Uint64(sum[:8]),
		Lo: binary.BigEndian.Uint64(sum[8:]),
	}
	if fp.IsZero() {
		fp.Lo = 1 // keep the zero value free as a sentinel
	}
	return fp
}

// canonicalCQ canonicalizes one conjunct and returns the renamed copy plus
// its serialization. When head is non-nil a pseudo-atom headRel(head...) is
// conjoined first, so head-variable positions survive renaming; the
// pseudo-atom stays in the serialization (it carries the head structure) but
// is stripped from the returned CQ.
func canonicalCQ(c CQ, head []string) (CQ, string) {
	work := c
	if len(head) > 0 {
		args := make([]Term, len(head))
		for i, h := range head {
			args[i] = V(h)
		}
		work = CQ{
			Atoms: append([]Atom{{Rel: headRel, Args: args}}, c.Atoms...),
			Preds: c.Preds,
		}
	}
	naming := canonicalNaming(work)
	renamed := renameCQ(work, naming)
	s := serializeCQ(renamed)
	if len(head) > 0 {
		renamed.Atoms = renamed.Atoms[1:] // headRel sorts first (NUL prefix)
	}
	return renamed, s
}

// canonicalNaming computes a variable renaming (old name → canonical index)
// that is invariant under consistent renaming of the conjunct's variables.
func canonicalNaming(c CQ) map[string]int {
	vars := c.Vars()
	if len(vars) == 0 {
		return nil
	}
	colors := refineColors(c, vars)

	// Group variables into color classes; singleton classes need no search.
	index := make(map[string]int, len(vars))
	type cand struct {
		name  string
		color uint64
	}
	cands := make([]cand, len(vars))
	for i, v := range vars {
		cands[i] = cand{v, colors[v]}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].color != cands[j].color {
			return cands[i].color < cands[j].color
		}
		return cands[i].name < cands[j].name
	})
	ambiguous := false
	for i := range cands {
		index[cands[i].name] = i
		if i > 0 && cands[i].color == cands[i-1].color {
			ambiguous = true
		}
	}
	if !ambiguous {
		return index
	}

	// Tied colors: search the orderings of each tie class for the naming
	// whose serialization is lexicographically least. Classes are small in
	// practice (symmetric self-joins), so this is a handful of candidates.
	best := ""
	bestNaming := map[string]int{}
	leaves := 0
	var assign func(pos int, naming map[string]int, remaining []cand)
	assign = func(pos int, naming map[string]int, remaining []cand) {
		if leaves >= canonSearchCap && best != "" {
			return
		}
		if len(remaining) == 0 {
			leaves++
			s := serializeCQ(renameCQ(c, naming))
			if best == "" || s < best {
				best = s
				bestNaming = make(map[string]int, len(naming))
				for k, v := range naming {
					bestNaming[k] = v
				}
			}
			return
		}
		// All candidates sharing the minimal color are interchangeable a
		// priori; branch on each.
		minColor := remaining[0].color
		for i, cd := range remaining {
			if cd.color != minColor {
				break
			}
			naming[cd.name] = pos
			rest := make([]cand, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			assign(pos+1, naming, rest)
			delete(naming, cd.name)
		}
	}
	assign(0, map[string]int{}, cands)
	return bestNaming
}

// refineColors runs color refinement: each variable starts with a hash of
// its (relation, position, negation, constant-pattern) occurrences and is
// repeatedly re-hashed with the colors of the variables it co-occurs with,
// until the partition stabilizes or len(vars) rounds have run.
func refineColors(c CQ, vars []string) map[string]uint64 {
	colors := make(map[string]uint64, len(vars))
	for _, v := range vars {
		occ := make([]uint64, 0, 4)
		for _, a := range c.Atoms {
			al := atomLabel(a)
			for pos, t := range a.Args {
				if !t.IsConst && t.Var == v {
					occ = append(occ, mix(al, uint64(pos)))
				}
			}
		}
		for _, p := range c.Preds {
			pl := predLabel(p)
			if !p.L.IsConst && p.L.Var == v {
				occ = append(occ, mix(pl, 0))
			}
			if !p.R.IsConst && p.R.Var == v {
				occ = append(occ, mix(pl, 1))
			}
		}
		colors[v] = hashMultiset(occ)
	}
	rounds := len(vars)
	if rounds > 8 {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		next := make(map[string]uint64, len(vars))
		for _, v := range vars {
			occ := make([]uint64, 0, 8)
			for _, a := range c.Atoms {
				hit := false
				for _, t := range a.Args {
					if !t.IsConst && t.Var == v {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				// The atom's signature under the current coloring: label plus
				// the positional colors of all its variable arguments, with
				// v's own positions marked.
				sig := atomLabel(a)
				for pos, t := range a.Args {
					if t.IsConst {
						continue
					}
					mark := uint64(1)
					if t.Var == v {
						mark = 2
					}
					sig = mix(sig, mix(uint64(pos), mix(colors[t.Var], mark)))
				}
				occ = append(occ, sig)
			}
			for _, p := range c.Preds {
				lv, rv := !p.L.IsConst && p.L.Var == v, !p.R.IsConst && p.R.Var == v
				if !lv && !rv {
					continue
				}
				sig := predLabel(p)
				if !p.L.IsConst {
					sig = mix(sig, mix(0, colors[p.L.Var]))
				}
				if !p.R.IsConst {
					sig = mix(sig, mix(1, colors[p.R.Var]))
				}
				if lv {
					sig = mix(sig, 7)
				}
				if rv {
					sig = mix(sig, 11)
				}
				occ = append(occ, sig)
			}
			next[v] = mix(colors[v], hashMultiset(occ))
		}
		if samePartition(vars, colors, next) {
			break
		}
		colors = next
	}
	return colors
}

// samePartition reports whether two colorings induce the same partition of
// the variables (refinement has stabilized).
func samePartition(vars []string, a, b map[string]uint64) bool {
	classA := map[uint64]int{}
	classB := map[uint64]int{}
	for _, v := range vars {
		if _, ok := classA[a[v]]; !ok {
			classA[a[v]] = len(classA)
		}
		if _, ok := classB[b[v]]; !ok {
			classB[b[v]] = len(classB)
		}
	}
	if len(classA) != len(classB) {
		return false
	}
	for _, v := range vars {
		if classA[a[v]] != classB[b[v]] {
			return false
		}
	}
	return true
}

// atomLabel hashes everything about an atom except its variable names:
// relation, negation, and the constant pattern.
func atomLabel(a Atom) uint64 {
	h := fnv.New64a()
	h.Write([]byte(a.Rel))
	if a.Negated {
		h.Write([]byte{'!'})
	}
	for _, t := range a.Args {
		if t.IsConst {
			h.Write([]byte{'c'})
			h.Write([]byte(t.Const.Key()))
		} else {
			h.Write([]byte{'_'})
		}
	}
	return h.Sum64()
}

// predLabel hashes a predicate modulo variable names.
func predLabel(p Pred) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "p%d;%d;", int(p.Op), p.Offset)
	for _, t := range []Term{p.L, p.R} {
		if t.IsConst {
			h.Write([]byte{'c'})
			h.Write([]byte(t.Const.Key()))
		} else {
			h.Write([]byte{'_'})
		}
	}
	return h.Sum64()
}

func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// hashMultiset hashes a multiset of 64-bit values order-independently by
// sorting then chaining.
func hashMultiset(xs []uint64) uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	h := uint64(1469598103934665603)
	for _, x := range xs {
		h = mix(h, x)
	}
	return h
}

// renameCQ applies a variable naming (old name → index) to a copy of the
// conjunct, producing variables named v0, v1, ...
func renameCQ(c CQ, naming map[string]int) CQ {
	name := func(t Term) Term {
		if t.IsConst {
			return t
		}
		return V("v" + itoa(naming[t.Var]))
	}
	out := CQ{Atoms: make([]Atom, len(c.Atoms))}
	for i, a := range c.Atoms {
		na := Atom{Rel: a.Rel, Negated: a.Negated, Args: make([]Term, len(a.Args))}
		for j, t := range a.Args {
			na.Args[j] = name(t)
		}
		out.Atoms[i] = na
	}
	if len(c.Preds) > 0 {
		out.Preds = make([]Pred, len(c.Preds))
		for i, p := range c.Preds {
			out.Preds[i] = Pred{Op: p.Op, L: name(p.L), R: name(p.R), Offset: p.Offset}
		}
	}
	sortCQ(&out)
	return out
}

// sortCQ orders atoms and predicates by their serialization, making the
// conjunct's spelling independent of input order.
func sortCQ(c *CQ) {
	sort.Slice(c.Atoms, func(i, j int) bool {
		return atomString(c.Atoms[i]) < atomString(c.Atoms[j])
	})
	sort.Slice(c.Preds, func(i, j int) bool {
		return predString(c.Preds[i]) < predString(c.Preds[j])
	})
}

// serializeCQ spells a renamed, sorted conjunct unambiguously.
func serializeCQ(c CQ) string {
	var b strings.Builder
	for _, a := range c.Atoms {
		b.WriteString(atomString(a))
		b.WriteByte('\x01')
	}
	b.WriteByte('\x02')
	for _, p := range c.Preds {
		b.WriteString(predString(p))
		b.WriteByte('\x01')
	}
	return b.String()
}

func atomString(a Atom) string {
	var b strings.Builder
	if a.Negated {
		b.WriteByte('!')
	}
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		writeTerm(&b, t)
	}
	b.WriteByte(')')
	return b.String()
}

func predString(p Pred) string {
	var b strings.Builder
	writeTerm(&b, p.L)
	b.WriteString(p.Op.String())
	writeTerm(&b, p.R)
	if p.Offset != 0 {
		fmt.Fprintf(&b, "%+d", p.Offset)
	}
	return b.String()
}

func writeTerm(b *strings.Builder, t Term) {
	if t.IsConst {
		b.WriteByte('#')
		b.WriteString(t.Const.Key())
		return
	}
	b.WriteString(t.Var)
}

func itoa(n int) string { return strconv.Itoa(n) }
