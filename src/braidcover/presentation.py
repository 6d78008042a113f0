"""Group presentations read off rooted signed white graphs.

One generator per white region; at each vertex the relator multiplies
(x_j^-1 x_i)^sign over the incident edge ends in rotation order, and the
root generator is killed.  This is the one place a vertex relator is
spelled: the cycle presentation, which the certificate and its lemmas
read their relators from, is the Greene presentation of a cycle graph
with its root relator kept.  Abelian invariants come from the integer Smith
normal form of the exponent matrix, which cross-checks the Goeritz
determinant of the same graph; the Smith form is one sparse elimination
that pivots on a least entry.  Tietze simplification removes generators
that occur once in a relator, shortest first, on code-point strings:
str.replace substitutes, and cancellation starts at the seams.
"""

from __future__ import annotations

import functools
import heapq
from collections import defaultdict, namedtuple
from math import gcd, inf

from .rewrite import FreeWord, format_word


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

    def pretty(self):
        return "< %s | %s >" % (", ".join(self.generators),
                                ", ".join(format_word(r) for r in self.relators))


def greene_presentation(g, keep_root=False):
    """Presentation of the branched double cover group from a white graph.

    The root generator is killed: its letters are left out of every
    relator, which is then freely reduced once.  One relator per generator,
    in the order of g.vertices.  The root vertex relator is redundant (the
    vertex relations have one global dependency); it is built only when
    keep_root is set, and then comes last.
    """
    gens = tuple(v for v in g.vertices if v != g.root)
    rels = []
    for v in gens + (g.root,) * keep_root:
        letters = []
        for i, end in g.rotations[v]:
            a, b, s = g.edges[i]
            other = b if end == 0 else a
            # (other^-1 v)^s
            pair = ((other, -1), (v, 1)) if s > 0 else ((v, -1), (other, 1))
            letters.extend(pair * abs(s))
        rels.append(FreeWord([x for x in letters if x[0] != g.root]))
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


def smith_normal_form(rows, ncols):
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

# Relator strings hold one code point per letter: 2i for generator i, 2i + 1
# for its inverse, skipping the surrogates; this many generators fit.
TIETZE_MAX_GENERATORS = (0x110000 - 0x800) // 2


def tietze_simplify(p):
    """Eliminate generators that occur exactly once in some relator.

    Abelian invariants are unchanged; the loop is deterministic (shortest
    relator first, ties by printed form) and stops at a fixpoint.  Relators are
    code-point strings with their generator counts and targets (least generator
    occurring once).  The heap holds (length, 0, id), and (length, 1, printed
    form, id) once a tie needs the print; holders[g] lists the ids holding g.
    """
    words = [w for w in (r.cyclic_reduce() for r in p.relators) if w]
    syms = sorted({sym for w in words for sym, _ in w.letters})
    if len(syms) > TIETZE_MAX_GENERATORS:
        raise PresentationError("Tietze takes %d generators at most" % TIETZE_MAX_GENERATORS)
    dec, enc, inv, gen, flip, pairs = _alphabet(tuple(syms))
    word = lambda s: FreeWord._reduced(tuple(map(dec.__getitem__, s)))
    holders, rels, heap, fresh, rid, gone = defaultdict(set), {}, [], [], 0, set()
    for w in words:
        s, counts = "".join(map(enc.__getitem__, w.letters)), {}
        for c in s:
            counts[gen[c]] = counts.get(gen[c], 0) + 1
        fresh.append((s, counts))
    while True:
        for s, counts in fresh:
            rid, t = rid + 1, None
            for g, c in counts.items():
                holders[g].add(rid)
                if c == 1 and (t is None or g < t):
                    t = g
            rels[rid] = s, counts, t
            if t:
                heapq.heappush(heap, (len(s), 0, rid))
        fresh = []
        while heap:
            e = heapq.heappop(heap)
            while heap and heap[0][-1] not in rels:
                heapq.heappop(heap)
            if e[-1] in rels and (e[1] or not heap or heap[0][0] > e[0]):
                break           # the least printed form, or alone at its length
            if e[-1] in rels:
                heapq.heappush(heap, (e[0], 1, format_word(word(rels[e[-1]][0])), e[-1]))
        else:
            break
        s, counts, t = rels.pop(e[-1])
        i = max(s.find(t), s.find(inv[t]))
        del counts[t]
        w = s[i + 1:] + s[:i]           # r = a t^-1 b gives t = b a, a t b gives (b a)^-1
        w = w[::-1].translate(flip) if s[i] == t else w
        seams = w and ((gen[w[0]], inv[w[0]] + w[0]), (gen[w[-1]], w[-1] + inv[w[-1]]))
        sub = t, w, w[::-1].translate(flip), seams, counts
        assert not FreeWord(map(dec.__getitem__, s.replace(t, w).replace(inv[t], sub[2])))
        for x in holders.pop(t) & rels.keys():
            xs, xc = _substitute(*rels.pop(x)[:2], sub, pairs, inv)
            if xs:
                fresh.append((xs, xc))
        gone.add(dec[t][0])
    tie = len({len(s) for s, _, _ in rels.values()}) < len(rels)    # print to break a tie
    out = sorted((len(s), tie and format_word(w), x, w)
                 for x, (s, _, _) in rels.items() for w in [word(s)])
    return GroupPresentation(tuple(g for g in p.generators if g not in gone),
                             tuple(e[-1] for e in out))


@functools.lru_cache(maxsize=16)
def _alphabet(syms):
    """Decoding and encoding maps for the sorted generators syms, each code's
    inverse and generator, the str.translate inversion table, and pairs."""
    codes = [chr(n + 0x800 if n >= 0xD800 else n) for n in range(2 * len(syms))]
    letters = [(sym, e) for sym in syms for e in (1, -1)]
    inv = {c: chr(ord(c) ^ 1) for c in codes}
    pairs = {g: ((g, g + inv[g]), (g, inv[g] + g)) for g in codes[::2]}
    return (dict(zip(codes, letters)), dict(zip(letters, codes)), inv,
            {c: chr(ord(c) & -2) for c in codes}, str.maketrans(inv), pairs)


def _substitute(s, counts, sub, pairs, inv):
    """Relator s with t replaced by w and t^-1 by wi, freely and cyclically
    reduced, and its counts (taken over); sub is (t, w, wi, seams, counts of
    w), and pairs[g] is ((g, g g^-1), (g, g^-1 g)).  As s and w are reduced,
    only the seams w[0]^-1 w[0] and w[-1] w[-1]^-1 can cancel first; once
    anything does (or w is empty), every generator's pairs are removed, pass
    after pass, until a pass removes nothing."""
    t, w, wi, seams, wcounts = sub
    k = counts.pop(t)
    out = s.replace(t, w).replace(inv[t], wi)
    for g, c in wcounts.items():
        counts[g] = counts.get(g, 0) + k * c
    todo = seams or [e for g in counts for e in pairs[g]]
    while todo and out:
        removed = False
        for g, pair in todo:
            if pair in out:
                counts[g] -= 2 * out.count(pair)
                out = out.replace(pair, "")
                removed = True
        todo = removed and [e for g in counts for e in pairs[g]]
    i, j = 0, len(out) - 1
    while i < j and inv[out[i]] == out[j]:
        counts[min(out[i], out[j])] -= 2
        i, j = i + 1, j - 1
    if j - i + 1 == len(s) + k * (len(w) - 1):     # nothing cancelled
        return out, counts
    return out[i:j + 1], {g: c for g, c in counts.items() if c}


def relator_sets_equal(p1, p2):
    """Relator multisets up to cyclic rotation and inversion."""
    k1 = sorted(r.canonical_cyclic() for r in p1.relators if r)
    k2 = sorted(r.canonical_cyclic() for r in p2.relators if r)
    return k1 == k2
