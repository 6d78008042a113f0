import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcover.braid import parse_braid, expand_fulltwist, mirror, BraidWord
from braidcover.diagram import (CheckerboardGraph, DecoratedCycleGraph,
                                DegenerateDiagram, DiagramError, ShapeMismatch,
                                closure_white_graph, cycle_graph_from_params,
                                to_decorated, goeritz_matrix, graph_dot,
                                GoeritzMatrix)
from braidcover.presentation import greene_presentation, abelianize

from support import (graphs_isomorphic, leibniz_det,
                     reference_closure_white_graph, reference_face_count,
                     workload_lines)


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
        assert sum(abs(k) for _, _, k in g.edges) == len(w.letters)
        assert len(g.to_json()["edges"]) == len(w.letters)
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
        assert abelianize(greene_presentation(g)).rank >= 1


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
    assert g1.rows == tuple({j: -x for j, x in r.items()} for r in g2.rows)
    assert abs(g1.determinant()) == abs(g2.determinant())


def test_goeritz_determinant_is_colour_independent_on_the_workloads():
    # the exchanged word's white graph is the other checkerboard colouring
    # of the same closure, so the two Goeritz determinants agree up to sign
    # (Gordon and Litherland, Invent. Math. 47, 1978)
    det = lambda w: abs(goeritz_matrix(closure_white_graph(expand_fulltwist(w))).determinant())
    lines = workload_lines()
    assert len(lines) > 2000
    for line in lines:
        w = parse_braid(line)
        assert det(w) == det(mirror(w, exchange=True)), line


def test_cycle_graph_counts():
    # vertex count including the root is c_n + m + 1
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    assert d.cn + d.m + 1 == 3
    assert len(cycle_graph_from_params(1, (2, 2), (1,)).vertices) == 3
    g = cycle_graph_from_params(3, (1, 1, 1), (1, 1))
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    assert len(g.vertices) == d.cn + d.m + 1


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


def test_face_count_matches_the_reference_on_the_workloads():
    # the reference walk visits every face of a graph drawn one edge per
    # crossing; the weighted graph walks fewer and adds its bigons
    lines = workload_lines()
    assert len(lines) > 2000
    for line in lines:
        w = expand_fulltwist(parse_braid(line))
        g = closure_white_graph(w)
        assert g.face_count() == reference_face_count(reference_closure_white_graph(w)), line


RUN = st.tuples(st.sampled_from((1, 2)),
                st.integers(1, 1000) | st.integers(1, 3),
                st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(RUN, min_size=1, max_size=8), st.sampled_from((-3, -2, -1, 1, 2, 3)))
def test_weighted_graph_matches_the_graph_drawn_per_crossing(runs, d):
    # runs of up to 10^3 letters, behind h^d: an s1 run is one weighted hub
    # edge, and everything read off the graph is as if it were k edges
    w = expand_fulltwist(BraidWord.from_runs([(g, k * s) for g, k, s in runs], d))
    g, ref = closure_white_graph(w), reference_closure_white_graph(w)
    assert g.euler_check()
    assert g.face_count() == ref.face_count()
    assert g.to_json() == ref.to_json()
    assert greene_presentation(g) == greene_presentation(ref)
    assert greene_presentation(g, keep_root=True) == greene_presentation(ref, keep_root=True)
    assert goeritz_matrix(g).rows == goeritz_matrix(ref).rows


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 1000), st.lists(st.integers(1, 1000), min_size=1, max_size=4),
       st.lists(st.integers(1, 1000), min_size=3, max_size=3))
def test_weighted_cycle_graph_reads_the_same_decoration(m, a, b):
    b = b[:len(a) - 1]
    runs = [(2, m), (1, a[0])]
    for bk, ak in zip(b, a[1:]):
        runs += [(2, -bk), (1, ak)]
    w = BraidWord.from_runs(runs)
    g, ref = closure_white_graph(w), reference_closure_white_graph(w)
    assert to_decorated(g) == to_decorated(ref) == DecoratedCycleGraph(m, a, b)
    assert g.to_json() == ref.to_json()
    assert greene_presentation(g, keep_root=True) == greene_presentation(ref, keep_root=True)


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


def test_shape_mismatch_two_negative_runs():
    # the negative cycle edges form two runs, so no positive arc exists
    with pytest.raises(ShapeMismatch, match="not contiguous"):
        to_decorated(graph_of("s2 s1 s2^-1 s1 s2 s1 s2^-1 s1"))


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
        inv = abelianize(greene_presentation(g))
        if inv.rank:
            assert det == 0
        else:
            assert det == inv.order()


def test_goeritz_determinant_matches_leibniz():
    rng = random.Random(1109)
    singular = 0
    for t in range(2000):
        n = rng.randint(0, 6)
        m = [[rng.randint(-5, 5) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
        if n >= 3 and t % 10 == 0:
            # singular without a zero row or column
            m[-1] = [x + y for x, y in zip(m[0], m[1])]
        want = leibniz_det(m)
        singular += want == 0
        rows = tuple({j: v for j, v in enumerate(r) if v} for r in m)
        assert GoeritzMatrix(tuple(range(n)), rows).determinant() == abs(want), m
    assert 200 < singular < 1800


def test_goeritz_rows_are_the_greene_exponent_sums():
    # a region's Greene relator abelianizes to its Goeritz row, so cli's
    # determinant-against-abelianization check compares two constructions
    # of one matrix; the Burau oracle checks the determinant itself
    from b3oracle import burau_determinant
    rng = random.Random(2024)
    checked = split = twisted = 0
    for _ in range(1200):
        gens = rng.choice([(1,), (2,)] + [(1, 2)] * 6)
        d = 0 if len(gens) == 1 else rng.choice((-1, 0, 0, 1))
        letters = [(rng.choice(gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 30))]
        w = expand_fulltwist(BraidWord(letters, d))
        if not w.letters:
            continue
        g = closure_white_graph(w)
        goeritz = goeritz_matrix(g)
        pres = greene_presentation(g)
        assert goeritz.labels == pres.generators
        index = {x: i for i, x in enumerate(pres.generators)}
        sums = []
        for r in pres.relators:
            row = {}
            for x, e in r.letters:
                row[index[x]] = row.get(index[x], 0) + e
            sums.append({j: v for j, v in row.items() if v})
        assert list(goeritz.rows) == sums, w
        used = {gen for gen, _ in w.letters}
        if used == {1}:
            # strand three closes off with no crossing; the form is that of
            # the two-strand part, T(2, k), while the split link has det 0
            assert goeritz.determinant() == abs(sum(e for _, e in w.letters))
            assert burau_determinant(w) == 0
        else:
            assert goeritz.determinant() == burau_determinant(w), w
        checked += 1
        split += len(used) == 1
        twisted += d != 0
    assert checked >= 1000 and split > 100 and twisted > 300


def test_dot_export():
    dot = graph_dot(graph_of("s2^2 s1").to_json())
    assert dot.startswith("graph")
    assert "sign=-1" in dot and "root=true" in dot


def test_json_export():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    assert d.to_json() == {"m": 3, "a": [1, 1, 1], "b": [1, 1]}
