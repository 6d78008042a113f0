"""Checkerboard white graphs of three-braid closures.

The closure diagram is drawn with the three strands horizontal and the
trace closure around the braid-axis side, the unbounded region shaded
black.  The white regions are then the segments of the band between
strands two and three, cut by the s2 crossings and cyclically joined
through the closure channel, plus one hub region on the other side of
strand one.  Every s2 crossing joins two consecutive band segments and
every s1 crossing joins the hub to the band segment spanning its
position, so the hub is the root of the Fig-2 style cycle graphs.  The
cycle graph (m; a; b) is the white graph of the closure of its word
s2^m s1^{a0} s2^{-b1} ... s2^{-bn} s1^{an}, so one function fixes the
rotation convention for both.

The graph is drawn a run at a time.  A run of k equal s1 letters is one
hub edge of multiplicity k, that is k parallel crossings, which bound
k - 1 bigon faces; an edge's weight is its sign times its multiplicity,
which is the Goeritz entry of the k crossings and the exponent of the
Greene factor they give.  A run of s2 letters stays one band segment per
crossing.  `to_json` lists one edge per crossing, as a letter-by-letter
drawing would.

Edge signs are calibrated so that the closure of
s2^3 s1 s2^-1 s1 s2^-1 s1 carries negative signs exactly on the
s2-positive path, which pins the convention for every other word.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod

from .braid import BraidWord
from .presentation import smith_normal_form
from .rewrite import prefix_sums, run_lengths


class DiagramError(Exception):
    pass


class DegenerateDiagram(DiagramError):
    pass


class ShapeMismatch(DiagramError):
    pass


def edge_sign(gen, exp):
    """Goeritz weight of a run gen^exp: +1 for s1, -1 for s2, times exp."""
    return exp if gen == 1 else -exp


class CheckerboardGraph:
    """Weighted rooted multigraph with a rotation system.

    edges[i] = (u, v, weight): |weight| parallel crossings of the weight's
    sign, one edge end at each of u and v; rotations[v] lists the edge ends
    (i, end) incident to v in reading order around the vertex, end 0 at u
    and 1 at v.
    """

    def __init__(self, vertices, edges, rotations, root):
        self.vertices, self.edges, self.rotations, self.root = vertices, edges, rotations, root
        known = set(vertices)
        seen = set()
        for v, ends in rotations.items():
            if v not in known:
                raise DiagramError("rotation at unknown vertex %r" % v)
            for e in ends:
                if e in seen:
                    raise DiagramError("duplicate edge end %r" % (e,))
                seen.add(e)
                i, end = e
                u = edges[i][end]
                if u != v:
                    raise DiagramError("edge end %r not at vertex %r" % (e, v))
        if len(seen) != 2 * len(edges):
            raise DiagramError("rotation system does not cover all edge ends")
        if root not in known:
            raise DiagramError("missing root")

    def components(self):
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in self.edges:
            parent[find(u)] = find(v)
        return len({find(v) for v in self.vertices})

    def face_count(self):
        """Faces of the embedded map: orbits of next-end after crossing over,
        plus the k - 1 bigons between the crossings of each edge of
        multiplicity k.

        Each orbit is walked once, from the first of its ends in the order
        of `rotations`, so every edge end is visited once."""
        pos = {}
        for v, ends in self.rotations.items():
            for j, e in enumerate(ends):
                pos[e] = (v, j)
        seen = set()
        faces = 0
        for e in pos:
            if e in seen:
                continue
            faces += 1
            while e not in seen:
                seen.add(e)
                i, end = e
                v, j = pos[(i, 1 - end)]
                ends = self.rotations[v]
                e = ends[(j + 1) % len(ends)]
        return faces + sum(abs(w) - 1 for _, _, w in self.edges)

    def euler_check(self):
        """Per-component V - E + F == 2, E counting crossings; isolated
        vertices carry no faces."""
        v = len(self.vertices)
        e = sum(abs(w) for _, _, w in self.edges)
        c0 = sum(1 for x in self.vertices if not self.rotations.get(x))
        ce = self.components() - c0
        return v - e + self.face_count() == 2 * ce + c0

    def to_json(self):
        """One signed edge per crossing."""
        return {"vertices": list(self.vertices),
                "edges": [[u, v, 1 if w > 0 else -1] for u, v, w in self.edges
                          for _ in range(abs(w))],
                "root": self.root}


def graph_dot(data):
    """DOT text of a white graph given in its `to_json` form."""
    lines = ["graph white_graph {"]
    for v in data["vertices"]:
        attr = ' [root=true, shape=doublecircle]' if v == data["root"] else ""
        lines.append('  "%s"%s;' % (v, attr))
    for u, v, s in data["edges"]:
        lines.append('  "%s" -- "%s" [sign=%d, label="%s"];'
                     % (u, v, s, "+" if s > 0 else "-"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def closure_white_graph(w):
    """White graph of the closure of a twist-free BraidWord, whose letters
    are freely reduced.

    One pass over the runs: the s2 crossings seen so far name the band
    segment of each crossing, and the ends that come before the first s2
    belong to the last segment, after its own.  A run of s1 letters is one
    hub edge whose weight is the run's exponent.
    """
    if w.fulltwist:
        raise DiagramError("expand the full twist first")
    runs = run_lengths(w.letters)
    if not runs:
        raise DegenerateDiagram("empty word has no crossings")
    nseg = max(sum(abs(k) for g, k in runs if g == 2), 1)
    segs = ["w%d" % j for j in range(nseg)]
    root = "r"
    edges = []
    seg_ends = [[] for _ in range(nseg)]    # each segment's rotation
    wrapped = []      # the last segment's ends before the first s2
    hub_ends = []
    seen = 0          # s2 crossings so far
    for g, k in runs:
        if g == 2:      # each crossing ends segment j and starts the next one
            sign = edge_sign(g, 1 if k > 0 else -1)
            for _ in range(abs(k)):
                j = (seen - 1) % nseg
                (seg_ends[j] if seen else wrapped).append((len(edges), 0))
                seg_ends[seen].append((len(edges), 1))
                edges.append((segs[j], segs[seen], sign))
                seen += 1
        else:           # k parallel crossings in the segment the run is in
            j = (seen - 1) % nseg
            (seg_ends[j] if seen else wrapped).append((len(edges), 1))
            hub_ends.append((len(edges), 0))
            edges.append((root, segs[j], edge_sign(g, k)))
    seg_ends[-1].extend(wrapped)
    rotations = {seg: tuple(ends) for seg, ends in zip(segs, seg_ends)}
    rotations[root] = tuple(reversed(hub_ends))
    g = CheckerboardGraph(tuple(segs + [root]), tuple(edges), rotations, root)
    if sum(abs(x) for _, _, x in g.edges) != len(w.letters):
        raise DiagramError("the white graph does not have one edge per crossing")
    if not g.euler_check():
        raise DiagramError("the white graph fails the Euler check")
    return g


class DecoratedCycleGraph(namedtuple("DecoratedCycleGraph", "m a b")):
    """Parameters (m, a_0..a_n, b_1..b_n) of the cycle-form white graph."""
    __slots__ = ()

    def __new__(cls, m, a, b):
        a, b = tuple(a), tuple(b)
        if m < 1 or len(a) != len(b) + 1:
            raise DiagramError("need m >= 1 and len(a) == len(b) + 1")
        if any(x < 1 for x in a) or any(x < 1 for x in b):
            raise DiagramError("all a_i and b_i must be positive")
        return super().__new__(cls, m, a, b)

    @property
    def n(self):
        return len(self.b)

    @property
    def c(self):
        return tuple(prefix_sums(self.b))

    @property
    def cn(self):
        return sum(self.b)

    def hypothesis_ok(self):
        """The order-obstruction hypothesis: m > 1, or m = 1 with a0, an > 1."""
        return self.m > 1 or (self.a[0] > 1 and self.a[-1] > 1)

    def to_json(self):
        return {"m": self.m, "a": list(self.a), "b": list(self.b)}


def cycle_graph_from_params(m, a, b):
    """White graph of the closure of s2^m s1^{a0} s2^{-b1} ... s1^{an},
    with the regions named after the cycle-form generators (cycle_names)."""
    d = DecoratedCycleGraph(m, a, b)
    runs = [(2, d.m), (1, d.a[0])]
    for bk, ak in zip(d.b, d.a[1:]):
        runs += [(2, -bk), (1, ak)]
    return cycle_names(closure_white_graph(BraidWord.from_runs(runs)), d.m)


def cycle_names(g, m):
    """closure_white_graph's graph of a cycle word whose s2 crossings start
    with its s2^m block, its regions renamed after the cycle-form
    generators.

    Band segment j is x_{m-1-j} for j < m - 1 and y_{j-m+1} from there on,
    so y0 follows the s2^m block and y_{c_k} carries the s1^{a_k} spokes;
    the hub is z.  The vertices are y0..y_cn, x1..x_{m-1}, z.
    """
    cn = len(g.vertices) - 1 - m
    name = {g.root: "z"}
    for j in range(m + cn):
        name["w%d" % j] = "x%d" % (m - 1 - j) if j < m - 1 else "y%d" % (j - m + 1)
    vertices = ["y%d" % i for i in range(cn + 1)] + ["x%d" % i for i in range(1, m)] + ["z"]
    return CheckerboardGraph(tuple(vertices),
                             tuple((name[u], name[v], s) for u, v, s in g.edges),
                             {name[v]: ends for v, ends in g.rotations.items()},
                             "z")


def to_decorated(g):
    """Read (m, a, b) off a cycle-form graph; ShapeMismatch otherwise."""
    root = g.root
    mult = {}
    for u, v, s in g.edges:
        if root in (u, v):
            if u == v:
                raise ShapeMismatch("loop at the root")
            if s < 1:
                raise ShapeMismatch("negative root edge")
            other = v if u == root else u
            mult[other] = mult.get(other, 0) + s
    cyc_edges = [(i, e) for i, e in enumerate(g.edges) if root not in e[:2]]
    rest = [v for v in g.vertices if v != root]
    deg = {v: 0 for v in rest}
    for _, (u, v, s) in cyc_edges:
        deg[u] += 1
        deg[v] += 1
    if not rest or any(d != 2 for d in deg.values()):
        raise ShapeMismatch("root removal must leave a single cycle")
    # walk the cycle
    loops = [(i, e) for i, e in cyc_edges if e[0] == e[1]]
    if loops:
        if len(rest) != 1 or len(cyc_edges) != 1:
            raise ShapeMismatch("stray loop")
        v = rest[0]
        if g.edges[loops[0][0]][2] != -1:
            raise ShapeMismatch("loop must be negative")
        if mult.get(v, 0) < 1:
            raise ShapeMismatch("marked vertex missing")
        return DecoratedCycleGraph(1, (mult[v],), ())
    adj = {v: [] for v in rest}
    for i, (u, v, s) in cyc_edges:
        adj[u].append((v, s))
        adj[v].append((u, s))
    start = rest[0]
    cycle = [start]
    visited = {start}
    signs = []
    prev = None
    cur = start
    while True:
        nxts = [t for t in adj[cur]]
        if prev is not None:
            # drop one occurrence of the edge we came along
            nxts.remove((prev, signs[-1]))
        nxt, s = nxts[0]
        signs.append(s)
        if nxt == start and len(cycle) == len(rest):
            break
        if nxt in visited:
            raise ShapeMismatch("not a single cycle")
        cycle.append(nxt)
        visited.add(nxt)
        prev, cur = cur, nxt
    m = signs.count(-1)
    if m == 0:
        raise ShapeMismatch("no negative arc")
    if len(signs) == m:
        # all-negative cycle: the single marked vertex is the n=0 shape
        markedv = [v for v in cycle if mult.get(v)]
        if len(markedv) != 1:
            raise ShapeMismatch("all-negative cycle needs exactly one mark")
        if any(mult.get(v) for v in cycle if v != markedv[0]):
            raise ShapeMismatch("stray marks")
        return DecoratedCycleGraph(m, (mult[markedv[0]],), ())
    # rotate the walk so it starts at y0 and runs along the positive arc
    return _orient_and_read(g, cycle, signs, mult)


def _orient_and_read(g, cycle, signs, mult):
    size = len(cycle)
    m = signs.count(-1)
    # endpoints of the positive arc: vertices incident to one negative and
    # one positive cycle edge; two of them exactly when the negative edges
    # are contiguous along the cycle
    ends = [i for i in range(size)
            if (signs[i - 1] == -1) != (signs[i] == -1)]
    if len(ends) != 2:
        raise ShapeMismatch("negative edges not contiguous")
    picked = None
    for i in ends:
        # y0 reads (negative edge, root edges, positive edge) around the
        # vertex; its mirror partner reads the reverse
        if not mult.get(cycle[i]):
            raise ShapeMismatch("arc endpoint must be marked")
        if _reads_neg_roots_pos(g, cycle[i]):
            if picked is not None:
                raise ShapeMismatch("ambiguous orientation")
            picked = i
    if picked is None:
        raise ShapeMismatch("no vertex with the y0 rotation pattern")
    # walk the positive arc from y0
    step = 1 if signs[picked] == 1 else -1
    a = [mult.get(cycle[picked], 0)]
    b = []
    gap = 0
    pos = picked
    for _ in range(size - m):
        pos = (pos + step) % size
        gap += 1
        if mult.get(cycle[pos]):
            a.append(mult[cycle[pos]])
            b.append(gap)
            gap = 0
    if gap:
        raise ShapeMismatch("positive arc must end at a marked vertex")
    interior = set(range(size)) - {(picked + step * t) % size for t in range(size - m + 1)}
    if any(mult.get(cycle[i]) for i in interior):
        raise ShapeMismatch("marked vertex on the negative arc")
    return DecoratedCycleGraph(m, tuple(a), tuple(b))


def _reads_neg_roots_pos(g, v):
    """True when the cyclic rotation at v is (neg edge, root edges..., pos edge)."""
    kinds = []
    for i, end in g.rotations[v]:
        u, w_, s = g.edges[i]
        other = w_ if end == 0 else u
        if other == g.root:
            kinds.append("r")
        elif s == -1:
            kinds.append("n")
        else:
            kinds.append("p")
    k = len(kinds)
    for r in range(k):
        rot = kinds[r:] + kinds[:r]
        if rot[0] == "n" and rot[-1] == "p" and all(x == "r" for x in rot[1:-1]):
            return True
    return False


class GoeritzMatrix:
    """rows[i] maps column j to the nonzero entry (i, j); labels name both.

    It presents H1 of the double branched cover (Gordon and Litherland) as
    the Greene presentation's exponent matrix, whose Smith form the pipeline
    reads the determinant off; this second construction serves tests."""

    def __init__(self, labels, rows):
        self.labels, self.rows = labels, rows

    def determinant(self):
        """|det|: the product of the Smith diagonal, 0 when it is short."""
        diag = smith_normal_form(self.rows)
        return prod(diag) if len(diag) == len(self.labels) else 0


def goeritz_matrix(g):
    """Goeritz form over the non-root white regions; |det| is the link
    determinant of the underlying diagram."""
    labels = tuple(v for v in g.vertices if v != g.root)
    index = {v: i for i, v in enumerate(labels)}
    rows = [{} for _ in labels]
    for u, v, s in g.edges:
        if u == v:
            continue                    # nugatory crossing
        i, j = index.get(u), index.get(v)
        for x in (i, j):
            if x is not None:
                rows[x][x] = rows[x].get(x, 0) + s
        if i is not None and j is not None:
            rows[i][j] = rows[i].get(j, 0) - s
            rows[j][i] = rows[j].get(i, 0) - s
    return GoeritzMatrix(labels, tuple({j: x for j, x in r.items() if x} for r in rows))

