import itertools
import random

import pytest

from braidcover.braid import parse_braid, expand_fulltwist, mirror, BraidWord
from braidcover.diagram import (CheckerboardGraph, DecoratedCycleGraph,
                                DegenerateDiagram, DiagramError, ShapeMismatch,
                                closure_white_graph, cycle_graph_from_params,
                                to_decorated, goeritz_matrix,
                                is_alternating_closure)
from braidcover.braid import classify_baldwin
from braidcover.presentation import greene_presentation, abelianize

from support import graphs_isomorphic


def graph_of(text):
    return closure_white_graph(expand_fulltwist(parse_braid(text)))


def test_calibration_braid_matches_cycle_form():
    g = graph_of("s2^3 s1 s2^-1 s1 s2^-1 s1")
    assert to_decorated(g) == DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    g2 = cycle_graph_from_params(3, (1, 1, 1), (1, 1))
    assert graphs_isomorphic(g, g2)


def test_single_crossing():
    g = graph_of("s1")
    assert len(g.vertices) == 2
    assert len(g.edges) == 1


def test_edge_count_is_crossing_count():
    rng = random.Random(3)
    for _ in range(40):
        letters = tuple((rng.choice((1, 2)), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 14)))
        w = BraidWord(letters, 0)
        if not w.letters:
            continue
        g = closure_white_graph(w)
        assert len(g.edges) == len(w.letters)
        assert g.euler_check()


def test_degenerate_empty_word():
    with pytest.raises(DegenerateDiagram):
        closure_white_graph(parse_braid("1"))
    with pytest.raises(DiagramError):
        closure_white_graph(parse_braid("h"))   # twist not expanded


def test_split_torus_pattern():
    # s2^n closures split off the first strand; the white graph is an
    # n-cycle of band segments plus the isolated hub, so the Goeritz
    # determinant vanishes
    for n in (2, 3, 5):
        g = graph_of("s2^%d" % n)
        assert len(g.vertices) == n + 1
        assert goeritz_matrix(g).determinant() == 0
        assert abelianize(greene_presentation(g, kill_root=True)).rank >= 1


def test_known_determinants():
    # trefoil via a stabilized diagram, figure eight, a 5-crossing link,
    # T(2,4), P(3,2,2), unknot; each value double-checked against the
    # Burau-at-(-1) determinant oracle
    from b3oracle import burau_determinant
    for text, det in [("s2^3 s1", 3), ("s1 s2^-1 s1 s2^-1", 5),
                      ("s1 s2^-1 s1 s2^-2", 8), ("s2^4 s1", 4),
                      ("s2^3 s1 s2^-1 s1 s2^-1 s1", 16),
                      ("s1 s2", 1)]:
        w = expand_fulltwist(parse_braid(text))
        assert abs(goeritz_matrix(closure_white_graph(w)).determinant()) == det, text
        assert burau_determinant(w) == det, text


def test_unknot_determinant():
    assert abs(goeritz_matrix(graph_of("s1 s2")).determinant()) == 1


def test_mirror_negates_goeritz():
    w = parse_braid("s2^3 s1 s2^-1 s1")
    g1 = goeritz_matrix(closure_white_graph(w))
    g2 = goeritz_matrix(closure_white_graph(mirror(w)))
    assert g1.labels == g2.labels
    assert all(a == -b for ra, rb in zip(g1.matrix, g2.matrix)
               for a, b in zip(ra, rb))
    assert abs(g1.determinant()) == abs(g2.determinant())


def test_cycle_graph_counts():
    # vertex count including the root is c_n + m + 1
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    assert d.vertex_count() == 3
    assert len(cycle_graph_from_params(1, (2, 2), (1,)).vertices) == 3
    g = cycle_graph_from_params(3, (1, 1, 1), (1, 1))
    assert len(g.vertices) == DecoratedCycleGraph(3, (1, 1, 1), (1, 1)).vertex_count()


def test_cycle_graph_degenerate_n0():
    g = cycle_graph_from_params(2, (1,), ())
    assert to_decorated(g) == DecoratedCycleGraph(2, (1,), ())
    # matches the closure of s2^2 s1
    assert graphs_isomorphic(g, graph_of("s2^2 s1"))
    # m = 1 degenerate carries a loop, like the closure of s2 s1^k
    g = cycle_graph_from_params(1, (3,), ())
    assert to_decorated(g) == DecoratedCycleGraph(1, (3,), ())
    assert graphs_isomorphic(g, graph_of("s2 s1^3"))


def test_round_trip_over_grid():
    for n in (0, 1, 2):
        for m in (1, 2, 3):
            for a in itertools.product((1, 2, 3), repeat=n + 1):
                for b in itertools.product((1, 2, 3), repeat=n):
                    d0 = DecoratedCycleGraph(m, a, b)
                    g = cycle_graph_from_params(m, a, b)
                    assert to_decorated(g) == d0
                    assert g.euler_check()


def test_normalized_braid_rebuilds_cycle_graph():
    # closure of the cycle-form braid gives the parameter graph back
    for m, a, b in [(3, (1, 2), (2,)), (4, (2, 1, 1), (1, 2)), (1, (2, 3), (2,))]:
        text = "s2^%d" % m
        for k in range(len(b) + 1):
            text += " s1^%d" % a[k]
            if k < len(b):
                text += " s2^-%d" % b[k]
        g = graph_of(text)
        assert to_decorated(g) == DecoratedCycleGraph(m, a, b)
        assert graphs_isomorphic(g, cycle_graph_from_params(m, a, b))


def test_shape_mismatch_tree():
    # root removal leaving a tree is not a cycle form
    g = CheckerboardGraph(
        ("r", "u", "v"),
        (("r", "u", 1), ("u", "v", 1)),
        {"r": ((0, 0),), "u": ((0, 1), (1, 0)), "v": ((1, 1),)},
        "r")
    with pytest.raises(ShapeMismatch):
        to_decorated(g)


def test_shape_mismatch_negative_root_edge():
    g = cycle_graph_from_params(2, (1, 1), (1,))
    edges = tuple((u, v, -s if u == "z" or v == "z" else s) for u, v, s in g.edges)
    bad = CheckerboardGraph(g.vertices, edges, g.rotations, g.root)
    with pytest.raises(ShapeMismatch):
        to_decorated(bad)


def test_determinant_equals_abelianization_on_type1():
    from b3oracle import burau_determinant
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = [rng.randint(0, 3) for _ in range(n)]
        if not any(a):
            a[0] = 1
        text = rng.choice(["h", "h^-1", ""])
        for ai in a:
            text += " s1 s2^-%d" % ai if ai else " s1"
        w = expand_fulltwist(parse_braid(text.strip()))
        g = closure_white_graph(w)
        det = abs(goeritz_matrix(g).determinant())
        assert det == burau_determinant(w)
        inv = abelianize(greene_presentation(g, kill_root=True))
        if inv.rank:
            assert det == 0
        else:
            assert det == inv.order()


def test_is_alternating_closure():
    assert is_alternating_closure(classify_baldwin(parse_braid("s1 s2^-1 s1 s2^-2")))
    assert not is_alternating_closure(classify_baldwin(parse_braid("h s1 s2^-1")))
    assert not is_alternating_closure(classify_baldwin(parse_braid("h s2^3")))


def test_dot_export():
    dot = graph_of("s2^2 s1").to_dot()
    assert dot.startswith("graph")
    assert "sign=-1" in dot and "root=true" in dot


def test_json_export():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    assert d.to_json() == {"m": 3, "a": [1, 1, 1], "b": [1, 1]}
