"""Group presentations read off rooted signed white graphs.

One generator per white region; at each vertex the relator multiplies
(x_j^-1 x_i)^sign over the incident edge ends in rotation order, and the
root generator is killed.  Abelian invariants come from the integer Smith
normal form of the exponent matrix, which cross-checks the Goeritz
determinant of the same graph.
"""

from __future__ import annotations

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


def greene_presentation(g, kill_root=False, keep_root_relator=False):
    """Presentation of the branched double cover group from a white graph.

    With kill_root the root generator is substituted away; the root vertex
    relator is redundant (the vertex relations have one global dependency)
    and dropped unless keep_root_relator is set.
    """
    relators = []
    for v in g.vertices:
        w = FreeWord()
        for i, end in g.rotations[v]:
            a, b, s = g.edges[i]
            other = b if end == 0 else a
            w = w * (FreeWord.gen(other).inverse() * FreeWord.gen(v)) ** s
        relators.append((v, w))
    if not kill_root:
        rels = tuple(w for _, w in relators) + (FreeWord.gen(g.root),)
        return GroupPresentation(tuple(g.vertices), rels)
    sub = {g.root: FreeWord()}
    rels = tuple(w.substitute(sub) for v, w in relators
                 if v != g.root or keep_root_relator)
    gens = tuple(v for v in g.vertices if v != g.root)
    return GroupPresentation(gens, rels)


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
    """Diagonal of the Smith normal form of an integer matrix.

    Plain exact-arithmetic reduction: move a pivot of least absolute value
    into place, clear its row and column, then fix up divisibility.
    """
    m = [list(r) for r in rows]
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
    gens = list(p.generators)
    index = {g: i for i, g in enumerate(gens)}
    rows = []
    for r in p.relators:
        row = [0] * len(gens)
        for sym, s in r.letters:
            row[index[sym]] += s
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
    relator first) and stops at a fixpoint.
    """
    gens = list(p.generators)
    rels = [r.cyclic_reduce() for r in p.relators if r.cyclic_reduce()]
    changed = True
    while changed:
        changed = False
        rels.sort(key=lambda r: (len(r), str(r)))
        for ri, r in enumerate(rels):
            target = None
            for sym in sorted(r.symbols()):
                if r.count(sym) == 1:
                    target = sym
                    break
            if target is None:
                continue
            word = solve_relation(r, target)
            sub = {target: word}
            gens.remove(target)
            rels = [x.substitute(sub).cyclic_reduce()
                    for xi, x in enumerate(rels) if xi != ri]
            rels = [x for x in rels if x]
            changed = True
            break
    return GroupPresentation(tuple(gens), tuple(rels))


def relator_sets_equal(p1, p2):
    """Relator multisets up to cyclic rotation and inversion."""
    k1 = sorted(r.canonical_cyclic() for r in p1.relators if r)
    k2 = sorted(r.canonical_cyclic() for r in p2.relators if r)
    return k1 == k2
