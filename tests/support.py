"""Helpers only the tests use: graph isomorphism, presentation edits, a
determinant oracle, the Smith diagonal from determinantal divisors, braid
rotation, the family (1) normalizer dispatch, a coset table printout, the
expansion of straight-line lemma rules, the cycle presentation, relator
map and certificate of a parameter tuple, and the references the faster
code must reproduce: the cycle graph's vertex relators written out by
formula, the telescope words by elimination, the letter-tuple twist
search, the face walk that started each face at the least unvisited
edge end, the index-2 witness search over a GF(2) basis, the white graph
drawn one edge per crossing and the Reidemeister-Schreier rewrite one
letter at a time; and the finite route's presentation of a braid line
and the benchmark's workload lines."""

import itertools
import os
import sys
from math import gcd

from braidcover import braid
from braidcover.braid import (BraidError, BraidWord, NormalizationError,
                              TWIST_NEG, TWIST_POS, classify_baldwin,
                              expand_fulltwist, normalize_type1_d1,
                              normalize_type1_dm1, parse_braid)
from braidcover.cli import run_pipeline
from braidcover.diagram import (CheckerboardGraph, DegenerateDiagram,
                                DiagramError, closure_white_graph,
                                cycle_graph_from_params, edge_sign)
from braidcover.ordercheck import (arc_relators, certify_cycle_non_lo,
                                   subgroup_abelianization)
from braidcover.presentation import (AbelianInvariants, GroupPresentation,
                                     cycle_presentation, greene_presentation,
                                     smith_normal_form, tietze_simplify)
from braidcover.rewrite import (FreeWord, prefix_sums, reduce_letters,
                                solve_relation, x_sym)


def presentation_from_json(data):
    return GroupPresentation(
        tuple(data["generators"]),
        tuple(FreeWord.from_pairs(r) for r in data["relators"]))


def kill_generator(p, gen):
    """Substitute gen = 1; drops the generator and any emptied relators."""
    sub = {gen: FreeWord()}
    rels = tuple(r for r in (w.substitute(sub) for w in p.relators) if r)
    return GroupPresentation(tuple(x for x in p.generators if x != gen), rels)


def graphs_isomorphic(g1, g2, respect_root=True):
    """Backtracking isomorphism of signed rooted multigraphs."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False

    def profile(g, v):
        pro = []
        for i, end in g.rotations[v]:
            u, w, s = g.edges[i]
            pro.append(s)
        return (len(pro), tuple(sorted(pro)))

    p1 = {v: profile(g1, v) for v in g1.vertices}
    p2 = {v: profile(g2, v) for v in g2.vertices}
    if sorted(p1.values()) != sorted(p2.values()):
        return False

    def sig(g, u, v):
        return tuple(sorted(s for (a, b, s) in g.edges if {a, b} == {u, v}))

    order = sorted(g1.vertices, key=lambda v: (p1[v], v))
    cand0 = {v: [w for w in g2.vertices if p2[w] == p1[v]] for v in g1.vertices}
    if respect_root:
        cand0[g1.root] = [g2.root] if p1[g1.root] == p2[g2.root] else []

    mapping = {}
    used = set()

    def bt(i):
        if i == len(order):
            return True
        v = order[i]
        for w in cand0[v]:
            if w in used:
                continue
            ok = True
            for v2, w2 in mapping.items():
                if sig(g1, v, v2) != sig(g2, w, w2):
                    ok = False
                    break
            if ok and sig(g1, v, v) == sig(g2, w, w):
                mapping[v] = w
                used.add(w)
                if bt(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return bt(0)


def leibniz_det(m):
    """Determinant as the signed sum over permutations; exponential, for
    small matrices only."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def determinantal_divisors(rows, ncols):
    """Nonzero Smith diagonal from the determinantal divisors: d_k is the
    gcd of the k x k minors and the k-th invariant factor is d_k / d_(k-1).
    Sums over permutations; for small matrices only."""
    out = []
    prev = 1
    for k in range(1, min(len(rows), ncols) + 1):
        dk = 0
        for rs in itertools.combinations(range(len(rows)), k):
            for cs in itertools.combinations(range(ncols), k):
                dk = gcd(dk, leibniz_det([[rows[i][j] for j in cs] for i in rs]))
        if not dk:
            break
        out.append(dk // prev)
        prev = dk
    return out


def reference_canonical_cyclic(w):
    """FreeWord.canonical_cyclic as the least of all rotations of the
    cyclically reduced word and of its inverse, quadratic in the length."""
    w = w.cyclic_reduce()
    return min(r[i:] + r[:i] for r in (w.letters, w.inverse().letters)
               for i in range(max(1, len(r))))


def cyclic_conjugate(w, k):
    """Rotate the letters of w left by k, keeping its full-twist power."""
    if not 0 <= k <= len(w.letters):
        raise BraidError("rotation out of range")
    ls = w.letters
    return BraidWord(ls[k:] + ls[:k], w.fulltwist)


def normalize_type1(w):
    """Normalize a family (1) braid with the normalizer for its d."""
    c = classify_baldwin(w)
    if c.kind != 1:
        raise NormalizationError("not a family (1) braid")
    if c.d == 1:
        return normalize_type1_d1(w, c)
    if c.d == -1:
        return normalize_type1_dm1(w, c)
    raise NormalizationError("d = 0 braids are alternating; nothing to normalize")


def expand_rules(rules, alphabet):
    """Every name of a straight-line program ([(name, body), ...] or
    {name: body}), expanded to a word over the words of `alphabet`; the
    result maps the alphabet's letters and every name."""
    out = dict(alphabet)
    for name, body in dict(rules).items():
        out[name] = body.substitute(out)
    return out


def cycle_pres(d):
    """The cycle presentation of the cycle form d = (m, a, b)."""
    return cycle_presentation(cycle_graph_from_params(*d))


def lemma_rel(d):
    """The {region: relator} map the lemmas of d read, as verify_certificate
    builds it."""
    return arc_relators(d, cycle_pres(d))


def certify(d):
    """certify_cycle_non_lo on d and its cycle graph."""
    return certify_cycle_non_lo(d, cycle_graph_from_params(*d))


def certified(d):
    """(certificate JSON, cycle presentation) of d, from one graph."""
    g = cycle_graph_from_params(*d)
    return certify_cycle_non_lo(d, g).to_json(), cycle_presentation(g)


# The relator of every vertex of the cycle graph written out by formula:
# the reference the relators read off the graph must match up to rotation
# and inversion.  x0 and xm are the aliases y0 and y{cn}; end_relator takes
# the name across the negative edge, which the lemmas keep formal for m = 1.

def path_relator(sym, i):
    """Relator of x_i on the negative path; sym(j) names x_j."""
    w = FreeWord.gen
    xi = w(sym(i))
    return (w(sym(i + 1)).inverse() * xi).inverse() \
        * (w(sym(i - 1)).inverse() * xi).inverse()


def unmarked_relator(i):
    w = FreeWord.gen
    yi = w("y%d" % i)
    return (w("y%d" % (i + 1)).inverse() * yi) * (w("y%d" % (i - 1)).inverse() * yi)


def marked_relator(a_k, i):
    w = FreeWord.gen
    yc = w("y%d" % i)
    return (w("y%d" % (i - 1)).inverse() * yc) * yc ** a_k \
        * (w("y%d" % (i + 1)).inverse() * yc)


def end_relator(i, a_k, x):
    """Relator of the arc end y_i (y0 or y_cn, with a_k root edges); x names
    the path-end vertex across its negative edge."""
    w = FreeWord.gen
    yi = w("y%d" % i)
    across = (w(x).inverse() * yi).inverse()
    if i == 0:
        return across * yi ** a_k * (w("y1").inverse() * yi)
    return (w("y%d" % (i - 1)).inverse() * yi) * yi ** a_k * across


def reference_cycle_relators(m, a, b):
    """{vertex: relator} of the cycle graph (m; a; b) by formula, the root
    relator y_cn^-a_n ... y_0^-a_0 under z; needs len(b) >= 1."""
    n = len(b)
    cn = sum(b)
    c = prefix_sums(b)
    sym = lambda i: x_sym(i, m, cn)
    rel = {"x%d" % i: path_relator(sym, i) for i in range(1, m)}
    rel["y0"] = end_relator(0, a[0], sym(1))
    for k in range(1, n):
        rel["y%d" % c[k]] = marked_relator(a[k], c[k])
    rel["y%d" % cn] = end_relator(cn, a[n], sym(m - 1))
    marked = set(c)
    for i in range(1, cn):
        if i not in marked:
            rel["y%d" % i] = unmarked_relator(i)
    rel["z"] = FreeWord([("y%d" % c[k], -1) for k in range(n, -1, -1)
                         for _ in range(a[k])])
    return rel


def reference_lemma_x(m, cn):
    """Every x_i, 0 <= i <= m, derived by solving the path relators one at
    a time up the path, each result substituted into the next: the
    elimination that verify_lemma_x's closed form must reproduce."""
    sym = lambda i: x_sym(i, m, cn)
    known = {sym(0): FreeWord.gen(sym(0)), sym(1): FreeWord.gen(sym(1))}
    for i in range(1, m):
        known[sym(i + 1)] = solve_relation(path_relator(sym, i),
                                           sym(i + 1)).substitute(known)
    return known


def reference_lemma_y(b):
    """Every y_i of every segment derived by elimination through the
    unmarked relators, forward from y_{c_{k-1}} and y_{c_{k-1}+1} and
    backward from y_{c_k} and y_{c_k - 1}: {"forward"|"backward": {k:
    {y_i: word}}}, the shape verify_lemma_y's results take."""
    y = lambda i: FreeWord.gen("y%d" % i)
    c = prefix_sums(b)
    out = {"forward": {}, "backward": {}}
    for k in range(1, len(b) + 1):
        lo, hi = c[k - 1], c[k]
        for side, first, step in (("forward", lo, 1), ("backward", hi, -1)):
            known = {"y%d" % first: y(first),
                     "y%d" % (first + step): y(first + step)}
            for i in range(first + step, hi if step == 1 else lo, step):
                known["y%d" % (i + step)] = solve_relation(
                    unmarked_relator(i), "y%d" % (i + step)).substitute(known)
            out[side][k] = known
    return out


def dump_coset_table(table):
    """The rows of a CosetTable as fixed-width text, one coset a line."""
    head = "coset " + " ".join("%4s %4s^-1" % (g, g) for g in table.generators)
    lines = [head]
    for i, row in enumerate(table.table):
        lines.append("%5d " % i + " ".join("%4d" % x for x in row))
    return "\n".join(lines) + "\n"


def _find_twists(letters):
    """All cyclic occurrences of 6-letter spellings of h^{±1}.

    Yields (rotation, sign) pairs such that rotating by `rotation` puts the
    block at the front, in a fixed deterministic order.
    """
    nn = len(letters)
    if nn < 6:
        return
    doubled = letters + letters
    for sign, pats in ((1, TWIST_POS), (-1, TWIST_NEG)):
        for pat in pats:
            for i in range(nn):
                if doubled[i:i + 6] == pat:
                    yield i, sign


def reference_twist_search(letters):
    """The twist search on letter tuples, reducing each successor in full
    and keeping every state whose exact spelling is new.  braid.twist_search
    lists the same states in the same order once later rotations are
    dropped (`drop_later_rotations`)."""
    start = reduce_letters(letters)
    states = [(start, 0, ())]
    seen = {(start, 0)}
    i = 0
    while i < len(states) and len(states) < braid.MAX_TWIST_STATES:
        cur, dd, moves = states[i]
        i += 1
        succs = []
        if cur and cur[0][0] == cur[-1][0] and cur[0][1] == -cur[-1][1]:
            succs.append((reduce_letters(cur[1:] + cur[:1]), dd,
                          moves + (("rotate", 1), ("reduce",))))
        for rot, sign in _find_twists(cur):
            rotated = cur[rot:] + cur[:rot]
            step = ((("rotate", rot),) if rot else ()) + \
                (("extract_h", sign), ("reduce",))
            succs.append((reduce_letters(rotated[6:]), dd + sign, moves + step))
        for nxt in succs:
            key = (nxt[0], nxt[1])
            if key not in seen:
                seen.add(key)
                states.append(nxt)
    return states


def drop_later_rotations(states):
    """A twist-search listing without each state that is a rotation of one
    listed earlier with the same dd; rotations are compared by trying all."""
    kept, met = [], set()
    for state in states:
        word, dd = state[0], state[1]
        key = (min([word[i:] + word[:i] for i in range(len(word))] or [word]), dd)
        if key not in met:
            met.add(key)
            kept.append(state)
    return kept


def finite_presentation(line):
    """The presentation the finite route enumerates for a braid line: the
    Tietze-simplified Greene presentation of the word its report presents,
    rebuilt from that word."""
    report, _ = run_pipeline(line, canonical=True)
    word = expand_fulltwist(parse_braid(report["presented"]["word"]))
    return tietze_simplify(greene_presentation(closure_white_graph(word)))


# dim H1(G; F2) above which reference_infinite_witness gives up
WITNESS_MAX_DIM = 8


def reference_infinite_witness(p):
    """infinite_witness as it was written for larger presentations: the
    maps onto Z/2 are the nonzero combinations of a basis of the solutions
    of the exponent-sum matrix mod 2, capped by that basis's dimension."""
    gens = p.generators
    col = {g: i for i, g in enumerate(gens)}
    rows = []
    for r in p.relators:
        row = 0
        for sym, _ in r.letters:
            row ^= 1 << col[sym]
        rows.append(row)
    basis = _f2_solutions(rows, len(gens))
    if len(basis) > WITNESS_MAX_DIM:
        return None
    for pick in range(1, 1 << len(basis)):
        bits = 0
        for i, v in enumerate(basis):
            if pick >> i & 1:
                bits ^= v
        eps = {g: bits >> i & 1 for i, g in enumerate(gens)}
        table = [[c ^ eps[g] for g in gens for _ in (0, 1)] for c in (0, 1)]
        if subgroup_abelianization(p, table).rank:
            return eps
    return None


def _f2_solutions(rows, n):
    """Basis of {x in F2^n : r.x = 0 for each row}; vectors as bitmasks."""
    pivots = {}                 # pivot column -> row, in reduced echelon form
    for r in rows:
        for c, pr in pivots.items():
            if r >> c & 1:
                r ^= pr
        if not r:
            continue
        c = (r & -r).bit_length() - 1
        for c2, pr in pivots.items():
            if pr >> c & 1:
                pivots[c2] = pr ^ r
        pivots[c] = r
    basis = []
    for f in range(n):
        if f not in pivots:
            x = 1 << f
            for c, pr in pivots.items():
                if pr >> f & 1:
                    x |= 1 << c
            basis.append(x)
    return basis


def reference_face_count(g):
    """Faces of the embedded map of a CheckerboardGraph, each started from
    the least edge end not yet visited."""
    pos = {}
    for v, ends in g.rotations.items():
        for j, e in enumerate(ends):
            pos[e] = (v, j)
    remaining = set(pos)
    faces = 0
    while remaining:
        e = min(remaining)
        while e in remaining:
            remaining.discard(e)
            i, end = e
            v, j = pos[(i, 1 - end)]
            ends = g.rotations[v]
            e = ends[(j + 1) % len(ends)]
        faces += 1
    return faces


def workload_lines():
    """The distinct braid-word lines of the four benchmark workloads at
    seeds 1 and 2, sorted."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads
    return sorted({op.line for name in ("ladder", "finite", "mix", "twisted")
                   for seed in (1, 2) for op in workloads.generate(name, seed)
                   if op.word is not None})


def reference_closure_white_graph(w):
    """closure_white_graph as it was drawn one edge per crossing: a run of
    k s1 letters gives k parallel hub edges of weight +-1."""
    if w.fulltwist:
        raise DiagramError("expand the full twist first")
    letters = reduce_letters(w.letters)
    if not letters:
        raise DegenerateDiagram("empty word has no crossings")
    nseg = max(sum(1 for g, _ in letters if g == 2), 1)
    segs = ["w%d" % j for j in range(nseg)]
    root = "r"
    edges = []
    seg_ends = [[] for _ in range(nseg)]
    wrapped = []
    hub_ends = []
    seen = 0
    for g, s in letters:
        idx = len(edges)
        j = (seen - 1) % nseg
        ends = seg_ends[j] if seen else wrapped
        if g == 2:
            edges.append((segs[j], segs[seen], edge_sign(g, s)))
            ends.append((idx, 0))
            seg_ends[seen].append((idx, 1))
            seen += 1
        else:
            edges.append((root, segs[j], edge_sign(g, s)))
            ends.append((idx, 1))
            hub_ends.append((idx, 0))
    seg_ends[-1].extend(wrapped)
    rotations = {seg: tuple(ends) for seg, ends in zip(segs, seg_ends)}
    rotations[root] = tuple(reversed(hub_ends))
    g = CheckerboardGraph(tuple(segs + [root]), tuple(edges), rotations, root)
    assert g.euler_check()
    return g


def reference_subgroup_abelianization(p, rows):
    """subgroup_abelianization as it rewrote each relator one letter at a
    time from each coset."""
    ngens = len(p.generators)
    seen = {0}
    tree = set()
    queue = [0]
    for c in queue:
        for x in range(2 * ngens):
            e = rows[c][x]
            if e not in seen:
                seen.add(e)
                queue.append(e)
                tree.add((c, x >> 1) if x & 1 == 0 else (e, x >> 1))
    col = {}
    for c in range(len(rows)):
        for i in range(ngens):
            if (c, i) not in tree:
                col[c, i] = len(col)
    gen = {g: i for i, g in enumerate(p.generators)}
    relations = []
    for r in p.relators:
        for start in range(len(rows)):
            c = start
            row = {}
            for sym, sign in r.letters:
                i = gen[sym]
                if sign == -1:
                    c = rows[c][2 * i + 1]
                k = col.get((c, i))
                if k is not None:
                    row[k] = row.get(k, 0) + sign
                if sign == 1:
                    c = rows[c][2 * i]
            relations.append({k: v for k, v in row.items() if v})
    diag = smith_normal_form(relations)
    return AbelianInvariants(tuple(d for d in diag if d > 1), len(col) - len(diag))
