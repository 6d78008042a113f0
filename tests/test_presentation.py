import random

import pytest

from braidcover.rewrite import FreeWord, parse_word
from braidcover.diagram import (CheckerboardGraph, DecoratedCycleGraph,
                                cycle_graph_from_params, goeritz_matrix,
                                closure_white_graph)
from braidcover.braid import parse_braid, expand_fulltwist
from braidcover.presentation import (GroupPresentation, PresentationError,
                                     DegenerateShape, greene_presentation,
                                     cycle_presentation,
                                     abelianize, tietze_simplify,
                                     smith_normal_form, relator_sets_equal)

from support import kill_generator, presentation_from_json

w = FreeWord.gen


def parallel_graph(k, sign=1):
    """Two vertices joined by k parallel signed edges, root r."""
    edges = tuple(("r", "v", sign) for _ in range(k))
    rot_r = tuple((i, 0) for i in range(k))
    rot_v = tuple((i, 1) for i in reversed(range(k)))
    return CheckerboardGraph(("r", "v"), edges, {"r": rot_r, "v": rot_v}, "r")


def test_parallel_edges_give_cyclic_group():
    g = parallel_graph(5)
    p = greene_presentation(g, kill_root=True)
    assert p.generators == ("v",)
    assert p.relators == (w("v") ** 5,)
    inv = abelianize(p)
    assert inv.torsion == (5,) and inv.rank == 0


def test_single_vertex_trivial_group():
    g = CheckerboardGraph(("r",), (), {"r": ()}, "r")
    p = greene_presentation(g, kill_root=True)
    assert p.generators == () and p.relators == ()
    assert abelianize(p).order() == 1


def test_balanced_counts():
    g = cycle_graph_from_params(3, (1, 1, 1), (1, 1))
    full = greene_presentation(g)
    assert len(full.generators) == len(full.relators) - 1
    killed = greene_presentation(g, kill_root=True)
    assert len(killed.generators) == len(killed.relators)


def test_cycle_presentation_example():
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    p = cycle_presentation(d)
    assert set(p.generators) == {"y0", "y1", "z"}
    assert len(p.relators) == 4           # r(y0), r(y1), z, r(z)
    # generator count is c_n + m + 1 on every instance
    for params in [(3, (1, 1, 1), (1, 1)), (2, (2, 1), (3,)), (1, (3, 4), (1,))]:
        d = DecoratedCycleGraph(*params)
        assert len(cycle_presentation(d).generators) == d.cn + d.m + 1


def test_cycle_presentation_rejects_degenerate():
    with pytest.raises(DegenerateShape):
        cycle_presentation(DecoratedCycleGraph(2, (1,), ()))


def test_cycle_matches_greene_structurally():
    import itertools
    for n in (1, 2):
        for m in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n + 1):
                for b in itertools.product((1, 2), repeat=n):
                    d = DecoratedCycleGraph(m, a, b)
                    g = cycle_graph_from_params(m, a, b)
                    p1 = greene_presentation(g, kill_root=True, keep_root_relator=True)
                    p2 = kill_generator(cycle_presentation(d), "z")
                    assert relator_sets_equal(p1, p2), (m, a, b)


def test_abelianize_examples():
    p = GroupPresentation(("v",), (w("v") ** 5,))
    assert abelianize(p).to_json() == {"torsion": [5], "rank": 0}
    # trefoil closure diagram
    g = closure_white_graph(expand_fulltwist(parse_braid("s2^3 s1")))
    inv = abelianize(greene_presentation(g, kill_root=True))
    assert inv.torsion == (3,) and inv.rank == 0
    assert abs(goeritz_matrix(g).determinant()) == 3
    # cycle form vs Goeritz determinant of the same braid's graph
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    inv = abelianize(kill_generator(cycle_presentation(d), "z"))
    det = abs(goeritz_matrix(cycle_graph_from_params(3, (1, 1, 1), (1, 1))).determinant())
    assert inv.order() == det == 16


def test_smith_normal_form_known():
    assert smith_normal_form([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_normal_form([[2, 4], [4, 8]], 2) == [2]
    assert smith_normal_form([[1, 0], [0, 0]], 2) == [1]
    assert smith_normal_form([], 3) == []
    assert smith_normal_form([[6, 4], [2, 8]], 2) == [2, 20]
    diag = smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]], 3)
    assert diag == [2, 2, 60]
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0


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
        inv = abelianize(greene_presentation(parallel_graph(k), kill_root=True))
        assert inv.order() == k
        assert abs(goeritz_matrix(parallel_graph(k)).determinant()) == k


def test_presentation_validates_generators():
    with pytest.raises(PresentationError):
        GroupPresentation(("a",), (parse_word("a b"),))


def test_json_roundtrip():
    d = DecoratedCycleGraph(2, (1, 2), (2,))
    p = cycle_presentation(d)
    assert presentation_from_json(p.to_json()).to_json() == p.to_json()


def test_pretty_printer():
    p = GroupPresentation(("v",), (w("v") ** 3,))
    assert p.pretty() == "< v | v^3 >"
