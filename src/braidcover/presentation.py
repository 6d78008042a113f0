"""Group presentations read off rooted weighted white graphs.

One generator per white region; at each vertex the relator multiplies
(x_j^-1 x_i)^weight over the incident edge ends in rotation order, and
the root generator is killed.  This is the one place a vertex relator is
spelled: the cycle presentation, which the certificate and its lemmas
read their relators from, is the Greene presentation of a cycle graph
with its root relator kept.  Abelian invariants come from the integer Smith
normal form of the exponent matrix, one sparse elimination that pivots on
a least entry.  That matrix is the Goeritz matrix of the same graph, so
the same Smith form gives the determinant, |H1| or 0 (cli._diagram_block).
Tietze simplification removes generators that occur once in a relator,
shortest relator first.  It only ever sees the finite route's
presentations, which have at most 7 generators: that route presents the
family member its class names, in the checkerboard colouring with fewer
regions (cli._finite_route).
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import gcd, inf

from .rewrite import FreeWord, solve_relation


class PresentationError(Exception):
    pass


class GroupPresentation(namedtuple("GroupPresentation", "generators relators")):
    __slots__ = ()

    def __new__(cls, generators, relators):
        gens = set(generators)
        for r in relators:
            if not r.symbols() <= gens:
                raise PresentationError("relator mentions undeclared generator: %s" % r)
        return super().__new__(cls, generators, relators)

    def to_json(self):
        return {"generators": list(self.generators),
                "relators": [r.pairs() for r in self.relators]}


def greene_presentation(g, keep_root=False):
    """Presentation of the branched double cover group from a white graph.

    Each edge end at v gives one factor (other^-1 v)^k, k the edge's
    weight, written as syllables.  The root generator is killed: its
    syllables are left out, so a factor at the root's edge is v^k (or
    other^-k at the root), and each relator is freely reduced once,
    syllable by syllable.  One relator per generator, in the order of
    g.vertices.  The root vertex relator is redundant (the vertex
    relations have one global dependency); it is built only when keep_root
    is set, and then comes last.
    """
    gens = tuple(v for v in g.vertices if v != g.root)
    rels = []
    for v in gens + (g.root,) * keep_root:
        syllables = []
        for i, end in g.rotations[v]:
            a, b, k = g.edges[i]
            other = b if end == 0 else a
            factor = ((other, -1), (v, 1)) if k > 0 else ((v, -1), (other, 1))
            if g.root in (v, other):
                syllables += [(x, e * abs(k)) for x, e in factor if x != g.root]
            else:
                syllables += factor * abs(k)
        rels.append(FreeWord.from_pairs(syllables))
    return GroupPresentation(gens, tuple(rels))


def cycle_presentation(g):
    """The cycle presentation: the Greene presentation of a cycle graph g,
    its regions named as diagram.cycle_names names them, with the root
    relator kept.  Generators y0..y_cn and x1..x_{m-1}; relator i belongs
    to generator i, and the last one, over the marked y's alone, to the
    root z."""
    return greene_presentation(g, keep_root=True)


# ---------------------------------------------------------------------------
# Abelian invariants.
# ---------------------------------------------------------------------------

class AbelianInvariants(namedtuple("AbelianInvariants", "torsion rank")):
    """torsion d1 | d2 | ..., all > 1, and the free rank."""
    __slots__ = ()

    def order(self):
        """|H1| when finite, else None."""
        if self.rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def to_json(self):
        return {"torsion": list(self.torsion), "rank": self.rank}


def smith_normal_form(rows):
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Rows are dense integer sequences or {column: value} dicts.  One sparse
    elimination: the pivot p is a least entry, ties broken by least (row
    nonzeros - 1) * (column nonzeros - 1) so that little fills in.  Row
    operations clear its column down to smaller remainders; once p is alone
    there, column operations reduce its row mod p, changing no other row, and
    a row with nothing left records |p|.  A unit leaves no remainder.  The
    heap offers the units while any are left, then every entry; a cost that
    grew since it was offered is offered again.
    """
    m = [{j: v for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
         for r in rows]
    cols = {}                   # column -> rows holding a nonzero in it
    for i, r in enumerate(m):
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = []                   # (|entry|, cost when offered, row, column)

    def offer(i):
        r = m[i]
        for j, v in r.items():
            if -bound <= v <= bound:
                heapq.heappush(heap, (abs(v), (len(r) - 1) * (len(cols[j]) - 1), i, j))

    diag = []
    for bound in (1, inf):      # the units, then every entry
        for i in range(len(m)):
            if m[i]:
                offer(i)
        while heap:
            a, cost, i, j = heapq.heappop(heap)
            prow = m[i]
            if prow is None or abs(prow.get(j, 0)) != a:
                continue
            now = (len(prow) - 1) * (len(cols[j]) - 1)
            if now > cost:          # filled in since offered: offer it again
                heapq.heappush(heap, (a, now, i, j))
                continue
            p = prow[j]
            m[i] = None
            for c in prow:
                cols[c].discard(i)
            held = cols[j]
            cols[j] = left = set()  # rows left with a remainder in column j
            for k in held:
                row = m[k]
                f, x = divmod(row.pop(j), p)
                if x:
                    row[j] = x
                    left.add(k)
                for c, v in prow.items():
                    if c == j:
                        continue
                    x = row.get(c, 0) - f * v
                    if x:
                        row[c] = x
                        cols[c].add(k)
                    else:
                        del row[c]
                        cols[c].discard(k)
                if row:
                    offer(k)
                else:
                    m[k] = None
            if not left:            # p alone in its column; a unit clears its row
                prow = a > 1 and {c: x for c, v in prow.items() if (x := v % p)}
            if prow:                # the pivot row goes back, p included
                prow[j] = p
                m[i] = prow
                for c in prow:
                    cols[c].add(i)
                offer(i)
            else:
                diag.append(a)
    # divisibility d_i | d_(i+1); a unit divides every entry
    diag.sort()
    for i in range(diag.count(1), len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return diag


def abelianize(p):
    """Torsion coefficients and free rank of the abelianized presentation."""
    gens = p.generators
    index = {g: i for i, g in enumerate(gens)}
    rows = []
    for r in p.relators:
        row = {}
        for sym, e in r.pairs():
            j = index[sym]
            row[j] = row.get(j, 0) + e
        rows.append(row)
    diag = smith_normal_form(rows)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(torsion, len(gens) - len(diag))


# ---------------------------------------------------------------------------
# Tietze simplification.
# ---------------------------------------------------------------------------

def tietze_simplify(p):
    """Eliminate generators that occur exactly once in some relator.

    Abelian invariants are unchanged; the loop is deterministic (shortest
    relator first, ties by printed form, target the least generator that
    occurs once) and stops at a fixpoint.  Each relator's sort key and
    target are computed once, when the relator is made; an elimination
    rewrites only the relators that hold the eliminated generator.
    """
    gens = list(p.generators)
    rels = [_tietze_entry(w) for w in (r.cyclic_reduce() for r in p.relators) if w]
    while True:
        rels.sort(key=lambda e: e[0])
        ri = next((i for i, e in enumerate(rels) if e[2] is not None), None)
        if ri is None:
            break
        _, r, target, _ = rels.pop(ri)
        sub = {target: solve_relation(r, target)}
        gens.remove(target)
        for i, (_, x, _, counts) in enumerate(rels):
            if target in counts:
                rels[i] = _tietze_entry(x.substitute(sub).cyclic_reduce())
        rels = [e for e in rels if e[1]]
    return GroupPresentation(tuple(gens), tuple(e[1] for e in rels))


def _tietze_entry(r):
    """(sort key, relator, least generator occurring once in it or None,
    occurrence counts of its generators)."""
    counts = {}
    for sym, e in r.pairs():
        counts[sym] = counts.get(sym, 0) + abs(e)
    once = [sym for sym, c in counts.items() if c == 1]
    return (len(r), str(r)), r, min(once) if once else None, counts


def relator_sets_equal(p1, p2):
    """Relator multisets up to cyclic rotation and inversion; equal tuples,
    the usual case, are not keyed."""
    if p1.relators == p2.relators:
        return True
    k1 = sorted(r.canonical_cyclic() for r in p1.relators if r)
    k2 = sorted(r.canonical_cyclic() for r in p2.relators if r)
    return k1 == k2
