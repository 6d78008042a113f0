"""Group presentations read off rooted signed white graphs.

One generator per white region; at each vertex the relator multiplies
(x_j^-1 x_i)^sign over the incident edge ends in rotation order, and the
root generator is killed.  Abelian invariants come from the integer Smith
normal form of the exponent matrix, which cross-checks the Goeritz
determinant of the same graph; the Smith form eliminates unit pivots on
sparse rows before any dense reduction.  Tietze simplification removes
generators that occur once in a relator, shortest relator first, and
prints a relator only to break a tie in length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .rewrite import FreeWord, cycle_relators, format_word, solve_relation


class PresentationError(Exception):
    pass


class DegenerateShape(PresentationError):
    pass


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        gens = set(self.generators)
        for r in self.relators:
            if not r.symbols() <= gens:
                raise PresentationError("relator mentions undeclared generator: %s" % r)

    def to_json(self):
        return {"generators": list(self.generators),
                "relators": [r.pairs() for r in self.relators]}

    def pretty(self):
        return "< %s | %s >" % (", ".join(self.generators),
                                ", ".join(format_word(r) for r in self.relators))


def greene_presentation(g, keep_root_relator=False):
    """Presentation of the branched double cover group from a white graph.

    The root generator is killed: its letters are left out of every
    relator, which is then freely reduced once.  The root vertex relator is
    redundant (the vertex relations have one global dependency) and is
    built only when keep_root_relator is set.
    """
    rels = []
    for v in g.vertices:
        if v == g.root and not keep_root_relator:
            continue
        letters = []
        for i, end in g.rotations[v]:
            a, b, s = g.edges[i]
            other = b if end == 0 else a
            # (other^-1 v)^s
            pair = ((other, -1), (v, 1)) if s > 0 else ((v, -1), (other, 1))
            letters.extend(pair * abs(s))
        rels.append(FreeWord([x for x in letters if x[0] != g.root]))
    gens = tuple(v for v in g.vertices if v != g.root)
    return GroupPresentation(gens, tuple(rels))


def cycle_presentation(d):
    """The explicit relator list of the cycle-form graphs, for n > 0.

    Generators x1..x_{m-1}, y0..y_{cn}, z; relators r(x_i), r(y_j), the
    bare z, and r(z) = y_cn^-an ... y0^-a0.
    """
    if d.n < 1:
        raise DegenerateShape("n = 0 cycle forms have no y segments")
    rel = cycle_relators(d.m, list(d.a), list(d.b))
    gens = tuple("x%d" % i for i in range(1, d.m)) + \
        tuple("y%d" % i for i in range(d.cn + 1)) + ("z",)
    return GroupPresentation(gens, tuple(rel[k] for k in gens + ("z_rel",)))


# ---------------------------------------------------------------------------
# Abelian invariants.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianInvariants:
    torsion: tuple   # d1 | d2 | ... , all > 1
    rank: int

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


def smith_normal_form(rows, ncols):
    """Nonzero diagonal of the Smith normal form of an integer matrix.

    Rows are dense integer sequences or {column: value} dicts.  Unit
    entries are eliminated first on sparse rows, each pivot chosen by
    least (row nonzeros - 1) * (column nonzeros - 1) so that little fills
    in; a heap holds the candidates, and a cost that grew since it was
    offered is offered again.  Each unit pivot gives a diagonal 1.  What
    remains goes to the dense reduction.
    """
    m = [{j: v for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
         for r in rows]
    cols = {}                   # column -> rows holding a nonzero in it
    for i, r in enumerate(m):
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = []                   # (cost when offered, row, column)

    def offer(i):
        r = m[i]
        for j, v in r.items():
            if v == 1 or v == -1:
                heapq.heappush(heap, ((len(r) - 1) * (len(cols[j]) - 1), i, j))

    for i in range(len(m)):
        offer(i)
    ones = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        prow = m[i]
        if prow is None or prow.get(j) not in (1, -1):
            continue
        now = (len(prow) - 1) * (len(cols[j]) - 1)
        if now > cost:          # filled in since offered: offer it again
            heapq.heappush(heap, (now, i, j))
            continue
        m[i] = None
        for c in prow:
            cols[c].discard(i)
        for k in cols.pop(j):
            row = m[k]
            f = row.pop(j) * prow[j]
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
        ones += 1
    left = sorted(c for c, held in cols.items() if held)
    place = {c: n for n, c in enumerate(left)}
    dense = []
    for r in m:
        if r:
            row = [0] * len(left)
            for c, v in r.items():
                row[place[c]] = v
            dense.append(row)
    return [1] * ones + _dense_smith(dense, len(left))


def _dense_smith(m, ncols):
    """Plain exact-arithmetic reduction: move a pivot of least absolute
    value into place, clear its row and column, then fix up divisibility."""
    nr = len(m)
    diag = []
    top = 0
    while top < min(nr, ncols):
        pivot = None
        best = None
        for i in range(top, nr):
            for j in range(top, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[top], m[i0] = m[i0], m[top]
        for r in m:
            r[top], r[j0] = r[j0], r[top]
        while True:
            p = m[top][top]
            done = True
            for i in range(top + 1, nr):
                if m[i][top]:
                    q = m[i][top] // p
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, ncols):
                if m[top][j]:
                    q = m[top][j] // p
                    for i in range(top, nr):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for r in m:
                            r[top], r[j] = r[j], r[top]
                        done = False
                        break
            if done:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # divisibility: d_i | d_{i+1}
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return [d for d in diag if d]


def abelianize(p):
    """Torsion coefficients and free rank of the abelianized presentation."""
    gens = p.generators
    index = {g: i for i, g in enumerate(gens)}
    rows = []
    for r in p.relators:
        row = {}
        for sym, s in r.letters:
            j = index[sym]
            row[j] = row.get(j, 0) + s
        rows.append(row)
    diag = smith_normal_form(rows, len(gens))
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(torsion, len(gens) - len(diag))


# ---------------------------------------------------------------------------
# Tietze simplification.
# ---------------------------------------------------------------------------

def tietze_simplify(p):
    """Eliminate generators that occur exactly once in some relator.

    Abelian invariants are unchanged; the loop is deterministic (shortest
    relator first, ties by printed form) and stops at a fixpoint.  Each
    relator's elimination target is computed once, when the relator is
    made, and its printed form only when it ties for the shortest
    eligible relator; an elimination rewrites only the relators that hold
    the eliminated generator, with its solved word inverted once.  The
    result lists its relators by (length, printed form).
    """
    gens = list(p.generators)
    rels = [_tietze_entry(w) for w in (r.cyclic_reduce() for r in p.relators) if w]
    while True:
        least = min((e[0] for e in rels if e[2] is not None), default=None)
        if least is None:
            break
        pick = min((e for e in rels if e[0] == least and e[2] is not None),
                   key=_printed)
        rels.remove(pick)
        _, r, target, _, _ = pick
        word = solve_relation(r, target)
        spelled = {1: word.letters, -1: word.inverse().letters}
        gens.remove(target)
        for i, (_, x, _, counts, _) in enumerate(rels):
            if target in counts:
                out = []
                for sym, sign in x.letters:
                    if sym == target:
                        out.extend(spelled[sign])
                    else:
                        out.append((sym, sign))
                rels[i] = _tietze_entry(FreeWord(out).cyclic_reduce())
        rels = [e for e in rels if e[0]]
    rels.sort(key=lambda e: (e[0], _printed(e)))
    return GroupPresentation(tuple(gens), tuple(e[1] for e in rels))


def _tietze_entry(r):
    """[length, relator, least generator occurring once in it or None,
    occurrence counts of its generators, printed form or None until
    needed]."""
    counts = {}
    for sym, _ in r.letters:
        counts[sym] = counts.get(sym, 0) + 1
    once = [sym for sym, c in counts.items() if c == 1]
    return [len(r), r, min(once) if once else None, counts, None]


def _printed(entry):
    if entry[4] is None:
        entry[4] = str(entry[1])
    return entry[4]


def relator_sets_equal(p1, p2):
    """Relator multisets up to cyclic rotation and inversion."""
    k1 = sorted(r.canonical_cyclic() for r in p1.relators if r)
    k2 = sorted(r.canonical_cyclic() for r in p2.relators if r)
    return k1 == k2
