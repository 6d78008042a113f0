import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcover.rewrite import FreeWord, parse_word
from braidcover.diagram import (CheckerboardGraph, DecoratedCycleGraph,
                                cycle_graph_from_params, goeritz_matrix,
                                closure_white_graph)
from braidcover.braid import parse_braid, expand_fulltwist
from braidcover.presentation import (GroupPresentation, PresentationError,
                                     greene_presentation, abelianize,
                                     tietze_simplify, smith_normal_form)
from braidcover.rewrite import LEFT_X, right_x_symbol

from support import (cycle_pres, determinantal_divisors, end_relator,
                     lemma_rel, presentation_from_json,
                     reference_cycle_relators)

w = FreeWord.gen


def parallel_graph(k, sign=1):
    """Two vertices joined by k parallel signed edges, root r."""
    edges = tuple(("r", "v", sign) for _ in range(k))
    rot_r = tuple((i, 0) for i in range(k))
    rot_v = tuple((i, 1) for i in reversed(range(k)))
    return CheckerboardGraph(("r", "v"), edges, {"r": rot_r, "v": rot_v}, "r")


def test_parallel_edges_give_cyclic_group():
    g = parallel_graph(5)
    p = greene_presentation(g)
    assert p.generators == ("v",)
    assert p.relators == (w("v") ** 5,)
    inv = abelianize(p)
    assert inv.torsion == (5,) and inv.rank == 0


def test_single_vertex_trivial_group():
    g = CheckerboardGraph(("r",), (), {"r": ()}, "r")
    p = greene_presentation(g)
    assert p.generators == () and p.relators == ()
    assert abelianize(p).order() == 1


def test_balanced_counts():
    # the vertex relations have one global dependency: killing the root
    # leaves as many relators as generators once the root relator goes
    g = cycle_graph_from_params(3, (1, 1, 1), (1, 1))
    killed = greene_presentation(g)
    assert len(killed.generators) == len(killed.relators)
    kept = greene_presentation(g, keep_root=True)
    assert kept.generators == killed.generators
    assert len(kept.relators) == len(killed.relators) + 1


def test_cycle_presentation_example():
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    p = cycle_pres(d)
    assert p.generators == ("y0", "y1")   # the root z is killed
    assert len(p.relators) == 3           # r(y0), r(y1), r(z)
    # c_n + m generators, one relator per region, on every instance
    for params in [(3, (1, 1, 1), (1, 1)), (2, (2, 1), (3,)), (1, (3, 4), (1,))]:
        d = DecoratedCycleGraph(*params)
        p = cycle_pres(d)
        assert len(p.generators) == d.cn + d.m
        assert len(p.relators) == d.cn + d.m + 1


def _cycle_grid_sample():
    """The 672 tuples m <= 4, n <= 3, a_i and b_i in {1, 2}; 2,000 drawn
    with a fixed seed from m <= 6, n <= 3, a_i and b_i in {1, 2, 3}; and
    the alias case (1; 2,2; 1), where y0's neighbours are both y1."""
    out = [(m, a, b) for n in (1, 2, 3) for m in (1, 2, 3, 4)
           for a in itertools.product((1, 2), repeat=n + 1)
           for b in itertools.product((1, 2), repeat=n)]
    assert len(out) == 672
    grid = [(m, a, b) for n in (1, 2, 3) for m in range(1, 7)
            for a in itertools.product((1, 2, 3), repeat=n + 1)
            for b in itertools.product((1, 2, 3), repeat=n)]
    return out + random.Random(16).sample(grid, 2000) + [(1, (2, 2), (1,))]


def test_cycle_matches_greene_structurally():
    # every relator read off the cycle graph is the formula's for its
    # vertex, up to rotation and inversion; for m = 1 the lemmas' map
    # has the formal path end x1 in both end relators
    key = lambda rel: {v: r.canonical_cyclic() for v, r in rel.items()}
    for m, a, b in _cycle_grid_sample():
        d = DecoratedCycleGraph(m, a, b)
        p = cycle_pres(d)
        got = dict(zip(p.generators + ("z",), p.relators))
        assert key(got) == key(reference_cycle_relators(m, a, b)), (m, a, b)
        if m == 1:
            rel = lemma_rel(d)
            assert rel["y0"].canonical_cyclic() == \
                end_relator(0, a[0], LEFT_X).canonical_cyclic()
            assert rel["y%d" % d.cn].canonical_cyclic() == \
                end_relator(d.cn, a[-1], right_x_symbol(1)).canonical_cyclic()


def test_abelianize_examples():
    p = GroupPresentation(("v",), (w("v") ** 5,))
    assert abelianize(p).to_json() == {"torsion": [5], "rank": 0}
    # trefoil closure diagram
    g = closure_white_graph(expand_fulltwist(parse_braid("s2^3 s1")))
    inv = abelianize(greene_presentation(g))
    assert inv.torsion == (3,) and inv.rank == 0
    assert abs(goeritz_matrix(g).determinant()) == 3
    # cycle form vs Goeritz determinant of the same braid's graph
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    inv = abelianize(cycle_pres(d))
    det = abs(goeritz_matrix(cycle_graph_from_params(3, (1, 1, 1), (1, 1))).determinant())
    assert inv.order() == det == 16


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1]
    assert smith_normal_form([]) == []
    assert smith_normal_form([[6, 4], [2, 8]]) == [2, 20]
    diag = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    assert diag == [2, 2, 60]
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0


@st.composite
def _sparse_matrices(draw):
    """Up to 5 x 5 integer matrices with some rows and columns zeroed."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=nc, max_size=nc))
            for _ in range(nr)]
    zero_rows = draw(st.sets(st.integers(0, 4)))
    zero_cols = draw(st.sets(st.integers(0, 4)))
    return [[0 if i in zero_rows or j in zero_cols else v
             for j, v in enumerate(r)] for i, r in enumerate(rows)], nc


@settings(max_examples=300, deadline=None, database=None)
@given(_sparse_matrices())
def test_smith_normal_form_matches_determinantal_divisors(matrix):
    rows, ncols = matrix
    want = determinantal_divisors(rows, ncols)
    assert smith_normal_form(rows) == want
    # the same matrix as {column: value} rows
    sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
    assert smith_normal_form(sparse) == want


@st.composite
def _unitless_matrices(draw):
    """Up to 5 x 5 matrices with no unit entry, so that no pivot is a unit
    until remainders make one."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.sampled_from((0, 2, -2, 3, -3, 4, -4, 6, -6))
    return [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)], nc


@settings(max_examples=300, deadline=None, database=None)
@given(_unitless_matrices())
def test_smith_normal_form_without_unit_entries(matrix):
    rows, ncols = matrix
    assert smith_normal_form(rows) == determinantal_divisors(rows, ncols)


def test_tietze_examples():
    p = GroupPresentation(("a", "b"), (parse_word("a b^-1"), parse_word("a^3")))
    q = tietze_simplify(p)
    assert q.generators == ("a",) or q.generators == ("b",)
    assert len(q.relators) == 1 and len(q.relators[0]) == 3
    # fixpoint
    assert tietze_simplify(q).to_json() == q.to_json()


def test_tietze_preserves_abelianization():
    rng = random.Random(23)
    syms = ["g%d" % i for i in range(4)]
    for _ in range(40):
        rels = []
        for _ in range(rng.randint(1, 5)):
            letters = [(rng.choice(syms), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 7))]
            rels.append(FreeWord(letters))
        p = GroupPresentation(tuple(syms), tuple(rels))
        q = tietze_simplify(p)
        assert abelianize(p).to_json() == abelianize(q).to_json()


def test_torus_calibration():
    # Greene presentation of the k-parallel-edge two-vertex graph is Z/k
    for k in range(1, 13):
        inv = abelianize(greene_presentation(parallel_graph(k)))
        assert inv.order() == k
        assert abs(goeritz_matrix(parallel_graph(k)).determinant()) == k


def test_presentation_validates_generators():
    with pytest.raises(PresentationError):
        GroupPresentation(("a",), (parse_word("a b"),))


def test_json_roundtrip():
    d = DecoratedCycleGraph(2, (1, 2), (2,))
    p = cycle_pres(d)
    assert presentation_from_json(p.to_json()).to_json() == p.to_json()
