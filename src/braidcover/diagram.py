"""Checkerboard white graphs of three-braid closures.

The closure diagram is drawn with the three strands horizontal and the
trace closure around the braid-axis side, the unbounded region shaded
black.  The white regions are then the segments of the band between
strands two and three, cut by the s2 crossings and cyclically joined
through the closure channel, plus one hub region on the other side of
strand one.  Every s2 crossing joins two consecutive band segments and
every s1 crossing joins the hub to the band segment spanning its
position, so the hub is the root of the Fig-2 style cycle graphs.

Edge signs are calibrated so that the closure of
s2^3 s1 s2^-1 s1 s2^-1 s1 carries negative signs exactly on the
s2-positive path, which pins the convention for every other word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import reduce_letters
from .rewrite import prefix_sums


class DiagramError(Exception):
    pass


class DegenerateDiagram(DiagramError):
    pass


class ShapeMismatch(DiagramError):
    pass


def edge_sign(gen, sign):
    """Goeritz sign of a crossing: +1 for s1, -1 for s2, times the letter sign."""
    return sign if gen == 1 else -sign


@dataclass
class CheckerboardGraph:
    """Signed rooted multigraph with a rotation system.

    edges[i] = (u, v, sign); rotations[v] lists the edge ends (i, end)
    incident to v in reading order around the vertex, end 0 at u and 1 at v.
    """
    vertices: tuple
    edges: tuple
    rotations: dict
    root: str

    def __post_init__(self):
        seen = set()
        for v, ends in self.rotations.items():
            if v not in self.vertices:
                raise DiagramError("rotation at unknown vertex %r" % v)
            for e in ends:
                if e in seen:
                    raise DiagramError("duplicate edge end %r" % (e,))
                seen.add(e)
                i, end = e
                u = self.edges[i][end]
                if u != v:
                    raise DiagramError("edge end %r not at vertex %r" % (e, v))
        if len(seen) != 2 * len(self.edges):
            raise DiagramError("rotation system does not cover all edge ends")
        if self.root not in self.vertices:
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
        """Faces of the embedded map: orbits of next-end after crossing over."""
        pos = {}
        for v, ends in self.rotations.items():
            for j, e in enumerate(ends):
                pos[e] = (v, j)
        remaining = set(pos)
        faces = 0
        while remaining:
            e = min(remaining)
            while e in remaining:
                remaining.discard(e)
                i, end = e
                other = (i, 1 - end)
                v, j = pos[other]
                ends = self.rotations[v]
                e = ends[(j + 1) % len(ends)]
            faces += 1
        return faces

    def euler_check(self):
        """Per-component V - E + F == 2; isolated vertices carry no faces."""
        v = len(self.vertices)
        e = len(self.edges)
        c0 = sum(1 for x in self.vertices if not self.rotations.get(x))
        ce = self.components() - c0
        return v - e + self.face_count() == 2 * ce + c0

    def to_dot(self):
        lines = ["graph white_graph {"]
        for v in self.vertices:
            attr = ' [root=true, shape=doublecircle]' if v == self.root else ""
            lines.append('  "%s"%s;' % (v, attr))
        for u, v, s in self.edges:
            lines.append('  "%s" -- "%s" [sign=%d, label="%s"];'
                         % (u, v, s, "+" if s > 0 else "-"))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {"vertices": list(self.vertices),
                "edges": [[u, v, s] for u, v, s in self.edges],
                "root": self.root}


def closure_white_graph(w):
    """White graph of the closure of a freely reduced, twist-free word."""
    if w.fulltwist:
        raise DiagramError("expand the full twist first")
    letters = reduce_letters(w.letters)
    if not letters:
        raise DegenerateDiagram("empty word has no crossings")
    n = len(letters)
    s2pos = [i for i, (g, _) in enumerate(letters) if g == 2]
    k2 = len(s2pos)

    def segment_of(p):
        """Index of the band segment containing position p (strictly between
        its bounding s2 crossings, cyclically)."""
        if k2 == 0:
            return 0
        for j in range(k2):
            lo = s2pos[j]
            hi = s2pos[(j + 1) % k2] if k2 > 1 else lo + n
            q = p if p > lo else p + n
            if lo < q < (hi if hi > lo else hi + n):
                return j
        raise DiagramError("position %d not in any segment" % p)

    nseg = max(k2, 1)
    segs = ["w%d" % j for j in range(nseg)]
    root = "r"
    vertices = tuple(segs + [root])
    edges = []
    seg_left = {}     # segment -> edge end at its starting crossing
    seg_right = {}    # segment -> edge end at its ending crossing
    seg_tops = {j: [] for j in range(nseg)}   # s1 ends, by position
    hub_ends = []
    for p, (g, s) in enumerate(letters):
        if g == 2:
            j = s2pos.index(p)
            left_seg = segs[(j - 1) % k2]
            right_seg = segs[j % k2]
            idx = len(edges)
            edges.append((left_seg, right_seg, edge_sign(g, s)))
            seg_right[(j - 1) % k2] = (idx, 0)
            seg_left[j % k2] = (idx, 1)
        else:
            j = segment_of(p)
            idx = len(edges)
            edges.append((root, segs[j], edge_sign(g, s)))
            seg_tops[j].append((p, (idx, 1)))
            hub_ends.append((p, (idx, 0)))

    rotations = {}
    for j in range(nseg):
        ends = []
        if j in seg_left:
            ends.append(seg_left[j])
        start = s2pos[j] if k2 else 0
        tops = sorted(seg_tops[j], key=lambda t: (t[0] - start) % n)
        ends.extend(e for _, e in tops)
        if j in seg_right:
            ends.append(seg_right[j])
        rotations[segs[j]] = tuple(ends)
    rotations[root] = tuple(e for _, e in sorted(hub_ends, reverse=True))
    g = CheckerboardGraph(vertices, tuple(edges), rotations, root)
    assert len(g.edges) == n
    assert g.euler_check()
    return g


@dataclass(frozen=True)
class DecoratedCycleGraph:
    """Parameters (m, a_0..a_n, b_1..b_n) of the cycle-form white graph."""
    m: int
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        if self.m < 1 or len(self.a) != len(self.b) + 1:
            raise DiagramError("need m >= 1 and len(a) == len(b) + 1")
        if any(x < 1 for x in self.a) or any(x < 1 for x in self.b):
            raise DiagramError("all a_i and b_i must be positive")

    @property
    def n(self):
        return len(self.b)

    @property
    def c(self):
        return tuple(prefix_sums(self.b))

    @property
    def cn(self):
        return sum(self.b)

    def vertex_count(self):
        """Vertices of the graph including the root: c_n + m + 1."""
        return self.cn + self.m + 1

    def hypothesis_ok(self):
        """The order-obstruction hypothesis: m > 1, or m = 1 with a0, an > 1."""
        return self.m > 1 or (self.a[0] > 1 and self.a[-1] > 1)

    def to_json(self):
        return {"m": self.m, "a": list(self.a), "b": list(self.b)}


def cycle_graph_from_params(m, a, b):
    """Build the cycle-form graph with the generator names as vertices.

    The rotation orders replicate the ones closure_white_graph produces for
    the braid s2^m s1^{a0} s2^{-b1} ... s1^{an}, so the two constructions
    agree on normalized braids: every segment reads (left crossing, root
    edges in position order, right crossing) and the root reads its spokes
    in decreasing position.
    """
    d = DecoratedCycleGraph(m, tuple(a), tuple(b))
    m, a, b = d.m, d.a, d.b
    cn, c, n = d.cn, d.c, d.n
    vertices = ["y%d" % i for i in range(cn + 1)] + \
               ["x%d" % i for i in range(1, m)] + ["z"]
    edges = []
    left_end = {}
    right_end = {}
    tops = {v: [] for v in vertices}
    # negative arc: the s2^m block runs right to left from y_cn through
    # x_{m-1} ... x_1 to y0 (for n = 0 both path ends are y0)
    seq = ["y%d" % cn] + ["x%d" % i for i in range(m - 1, 0, -1)] + ["y0"]
    for p in range(m):
        idx = len(edges)
        edges.append((seq[p], seq[p + 1], -1))
        right_end[seq[p]] = (idx, 0)
        left_end[seq[p + 1]] = (idx, 1)
    # positive arc y0 ... y_cn
    for i in range(cn):
        idx = len(edges)
        edges.append(("y%d" % i, "y%d" % (i + 1), +1))
        right_end["y%d" % i] = (idx, 0)
        left_end["y%d" % (i + 1)] = (idx, 1)
    # root spokes; the hub sees blocks in decreasing position, the marked
    # vertices see their own block in increasing position
    root_ends = []
    for k in range(n, -1, -1):
        block = []
        for _ in range(a[k]):
            idx = len(edges)
            edges.append(("z", "y%d" % c[k], +1))
            block.append(idx)
            root_ends.append((idx, 0))
        tops["y%d" % c[k]] = [(i, 1) for i in reversed(block)]
    rotations = {"z": tuple(root_ends)}
    for v in vertices:
        if v == "z":
            continue
        ends = []
        if v in left_end:
            ends.append(left_end[v])
        ends.extend(tops[v])
        if v in right_end:
            ends.append(right_end[v])
        rotations[v] = tuple(ends)
    g = CheckerboardGraph(tuple(vertices), tuple(edges), rotations, "z")
    assert g.euler_check()
    return g


def to_decorated(g):
    """Read (m, a, b) off a cycle-form graph; ShapeMismatch otherwise."""
    root = g.root
    mult = {}
    for u, v, s in g.edges:
        if root in (u, v):
            if u == v:
                raise ShapeMismatch("loop at the root")
            if s != 1:
                raise ShapeMismatch("negative root edge")
            other = v if u == root else u
            mult[other] = mult.get(other, 0) + 1
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
        if nxt in cycle:
            raise ShapeMismatch("not a single cycle")
        cycle.append(nxt)
        prev, cur = cur, nxt
    if len(cycle) != len(rest):
        raise ShapeMismatch("cycle misses vertices")
    neg = [i for i, s in enumerate(signs) if s == -1]
    m = len(neg)
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
    # the negative edges must be contiguous along the cycle
    if not _contiguous(neg, len(signs)):
        raise ShapeMismatch("negative edges not contiguous")
    # rotate the walk so it starts at y0 and runs along the positive arc
    dec = _orient_and_read(g, cycle, signs, mult)
    return dec


def _contiguous(idxs, total):
    k = len(idxs)
    s = set(idxs)
    for start in idxs:
        if all((start + t) % total in s for t in range(k)):
            return True
    return False


def _orient_and_read(g, cycle, signs, mult):
    size = len(cycle)
    neg = {i for i, s in enumerate(signs) if s == -1}
    m = len(neg)
    # endpoints of the positive arc: vertices incident to one negative and
    # one positive cycle edge
    ends = [i for i in range(size)
            if (signs[i - 1] == -1) != (signs[i] == -1)]
    if len(ends) != 2:
        raise ShapeMismatch("positive arc endpoints")
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


@dataclass
class GoeritzMatrix:
    labels: tuple
    matrix: tuple

    def determinant(self):
        return _int_det([list(r) for r in self.matrix])

    def to_json(self):
        return {"labels": list(self.labels), "matrix": [list(r) for r in self.matrix]}


def goeritz_matrix(g):
    """Goeritz form over the non-root white regions; |det| is the link
    determinant of the underlying diagram."""
    labels = tuple(v for v in g.vertices if v != g.root)
    index = {v: i for i, v in enumerate(labels)}
    size = len(labels)
    mat = [[0] * size for _ in range(size)]
    for u, v, s in g.edges:
        if u == v:
            continue                    # nugatory crossing
        if u in index and v in index:
            mat[index[u]][index[v]] -= s
            mat[index[v]][index[u]] -= s
        for x in (u, v):
            if x in index:
                mat[index[x]][index[x]] += s
    return GoeritzMatrix(labels, tuple(tuple(r) for r in mat))


def _int_det(m):
    """Fraction-free Gaussian elimination (Bareiss), exact over Z."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_alternating_closure(c):
    """Family (1) braids with d = 0 close up to alternating diagrams."""
    return c.kind == 1 and c.d == 0
