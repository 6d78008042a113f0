"""Helpers only the tests use: graph isomorphism and presentation edits."""

from braidcover.presentation import GroupPresentation
from braidcover.rewrite import FreeWord


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
