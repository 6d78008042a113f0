import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidcover import rewrite
from braidcover.rewrite import (FreeWord, RewriteError,
                                format_word, parse_word, solve_relation,
                                verify_lemma_x, verify_lemma_y,
                                verify_lemma_left, verify_lemma_right,
                                verify_product_relation,
                                left_elimination, right_elimination,
                                left_alphabet, right_alphabet, QL, QR,
                                prefix_sums, x_sym)
from braidcover.diagram import DecoratedCycleGraph
from braidcover.ordercheck import verify_certificate
from support import (certified, expand_rules, lemma_rel,
                     reference_canonical_cyclic, reference_lemma_x,
                     reference_lemma_y)

w = FreeWord.gen


def test_reduce_basics():
    assert (w("x") * w("x", -1)).is_identity()
    assert w("x") * w("y") * w("y", -1) * w("x") == FreeWord.from_pairs([("x", 2)])
    u = parse_word("x y^-2 x^3")
    assert FreeWord(u.letters) == u          # reduce is idempotent


def test_reduce_cancels_inverse():
    for word in [parse_word("x y x^-1"), parse_word("a^3 b^-2 a"), FreeWord()]:
        assert (word * word.inverse()).is_identity()
        assert (word.inverse() * word).is_identity()


def test_word_algebra():
    u = parse_word("x y^-1")
    assert u ** 3 == parse_word("x y^-1 x y^-1 x y^-1")
    assert u ** -2 == (u.inverse()) ** 2
    assert u ** 0 == FreeWord()
    assert u.substitute({"y": parse_word("x")}).is_identity()


def test_substitute():
    u = parse_word("a b a^-1")
    got = u.substitute({"b": parse_word("a c")})
    assert got == parse_word("a a c a^-1")
    # substituted symbol disappears
    assert "b" not in got.symbols()


def test_cyclic_reduce_and_canonical():
    u = parse_word("x y x^-1")
    assert u.cyclic_reduce() == parse_word("y")
    r1 = parse_word("a b c")
    r2 = parse_word("b c a")
    r3 = r1.inverse()
    assert r1.canonical_cyclic() == r2.canonical_cyclic() == r3.canonical_cyclic()
    assert parse_word("a b").canonical_cyclic() != parse_word("a b^-1").canonical_cyclic()
    rng = random.Random(5)
    for _ in range(200):
        u = FreeWord([(rng.choice("abc"), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 10))])
        key = u.canonical_cyclic()
        for i in range(max(1, len(u))):
            assert FreeWord(u.letters[i:] + u.letters[:i]).canonical_cyclic() == key
        assert u.inverse().canonical_cyclic() == key


def test_canonical_cyclic_matches_the_reference():
    # small alphabets and periodic words give the ties a least-rotation
    # search must break
    rng = random.Random(12)
    words = [FreeWord(), w("a"), w("a", -1)]
    for _ in range(3000):
        block = [(rng.choice("ab" if rng.random() < 0.5 else "abc"), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 6))]
        words.append(FreeWord(block * rng.choice((1, 1, 2, 3))))
    assert sum(len(u) <= 1 for u in words) > 50
    for u in words:
        assert u.canonical_cyclic() == reference_canonical_cyclic(u), u


def test_reduced_constructors_match_reducing_ones():
    # inverse, gen and cyclic_reduce skip the reduction pass; their letters
    # must be those the reducing constructor gives
    rng = random.Random(31)
    for _ in range(2000):
        letters = [(rng.choice("abc"), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 12))]
        u = FreeWord(letters)
        inverse = [(s, -e) for s, e in reversed(u.letters)]
        assert u.inverse().letters == FreeWord(inverse).letters
        i = 0
        while len(u) - 2 * i >= 2 and u.letters[i] == (u.letters[-1 - i][0],
                                                       -u.letters[-1 - i][1]):
            i += 1
        assert u.cyclic_reduce().letters == FreeWord(u.letters[i:len(u) - i]).letters
        sym, exp = rng.choice("xyz"), rng.randint(-6, 6)
        assert w(sym, exp).letters == FreeWord([(sym, 1 if exp > 0 else -1)] * abs(exp)).letters


def test_format_and_parse_roundtrip():
    for text in ["x1 x0^-1 x1", "y0^3", "1"]:
        assert format_word(parse_word(text), fold=False) == text
    assert format_word(parse_word("x1 x0^-1 x1 x0^-1 x1 x0^-1 x1")) == "(x1 x0^-1)^3 x1"


def test_solve_relation_examples():
    # x2 = x1 x0^-1 x1 from the path relator
    r = parse_word("x0^-1 x1 x2^-1 x1")
    assert solve_relation(r, "x2") == parse_word("x1 x0^-1 x1")
    # bare generator solves to the identity
    assert solve_relation(parse_word("g"), "g").is_identity()
    # r = a g^-1 b  ->  g = b a, checked by substitution
    r = parse_word("a g^-1 b")
    sol = solve_relation(r, "g")
    assert sol == parse_word("b a")
    assert r.substitute({"g": sol}).is_identity()


def test_solve_relation_errors():
    with pytest.raises(RewriteError):
        solve_relation(parse_word("a b"), "g")
    with pytest.raises(RewriteError):
        solve_relation(parse_word("g a g"), "g")


def _rel(m, a, b):
    return lemma_rel(DecoratedCycleGraph(m, a, b))


def test_lemma_x_base_cases():
    # the path ends are the aliases x0 = y0 and xm = y_cn
    t = verify_lemma_x(_rel(2, (1, 1), (1,)), 2, 1)
    assert t.results["y1"] == parse_word("x1 y0^-1 x1")
    t = verify_lemma_x(_rel(1, (2, 2), (1,)), 1, 1)
    assert t.results["y1"] == parse_word("y1")


def test_lemma_x_closed_form():
    t = verify_lemma_x(_rel(5, (1, 1), (2,)), 5, 2)
    assert t.results["y2"] == (parse_word("x1 y0^-1")) ** 4 * parse_word("x1")
    for m in range(1, 9):
        verify_lemma_x(_rel(m, (1, 1), (1,)), m, 1)


def test_lemma_y_degenerate_segment():
    # b_k = 1 collapses to y_{c_k} = y_{c_{k-1}+1}
    verify_lemma_y(_rel(1, (1, 1), (1,)), (1,))


def test_lemma_y_one_substitution_step():
    # b_k = 2: y_{c_k} = (y_{c_{k-1}+1} y_{c_{k-1}}^-1) y_{c_{k-1}+1}
    verify_lemma_y(_rel(1, (1, 1), (2,)), (2,))


def test_lemma_y_forward_backward_agreement():
    verify_lemma_y(_rel(1, (1, 1), (3,)), (3,))


def test_telescope_end_words_match_elimination():
    # the closed forms, built only at the ends, are the words that
    # eliminating along the whole path or segment derives
    for m in range(1, 9):
        for cn in (1, 3):
            want = reference_lemma_x(m, cn)
            ends = [x_sym(i, m, cn) for i in (m - 1, m)]
            got = verify_lemma_x(_rel(m, (1, 1), (cn,)), m, cn).results
            assert got == {s: want[s] for s in ends}, (m, cn)
    for n in (1, 2, 3):
        for b in itertools.product(range(1, 9), repeat=n):
            got = verify_lemma_y(_rel(1, (1,) * (n + 1), b), b).results
            want = reference_lemma_y(b)
            c = prefix_sums(b)
            for k in range(1, n + 1):
                lo, hi = c[k - 1], c[k]
                for side, ends in (("forward", (hi - 1, hi)), ("backward", (lo, lo + 1))):
                    assert got[side][k] == {"y%d" % i: want[side][k]["y%d" % i]
                                            for i in ends}, (b, k, side)


def test_telescope_names_the_vertex_whose_relator_is_wrong():
    # y5, inside the second segment of b = (3, 4), gets an extra letter
    rel = _rel(1, (1, 1, 1), (3, 4))
    verify_lemma_y(rel, (3, 4))
    # the telescopes read no marked relator
    verify_lemma_y(dict(rel, y3=rel["y3"] * w("y3")), (3, 4))
    with pytest.raises(RewriteError, match=r"relator of y5$"):
        verify_lemma_y(dict(rel, y5=rel["y5"] * w("y5")), (3, 4))
    # x3 loses its successor, so its relator cannot be solved for x4
    for cn in (1, 2):
        rel = _rel(6, (1, 1), (cn,))
        verify_lemma_x(rel, 6, cn)
        bad = dict(rel, x3=rel["x3"].substitute({"x4": w("x2")}))
        with pytest.raises(RewriteError, match=r"relator of x3$"):
            verify_lemma_x(bad, 6, cn)


def test_lemma_left_examples():
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    rules, _ = verify_lemma_left(d, lemma_rel(d))
    assert {k: format_word(v, fold=False) for k, v in rules.items()} == \
        {"W0": "y0", "D0": "qL", "W1": "D0 W0"}
    words = expand_rules(rules, {"y0": w("y0"), QL: w(QL)})
    assert [format_word(words[k], fold=False) for k in ("W0", "W1")] == ["y0", "qL y0"]
    assert all(v.is_positive() for v in rules.values())


def test_lemma_left_k0_trivial():
    d = DecoratedCycleGraph(2, (1, 1), (1,))
    rules, _ = verify_lemma_left(d, lemma_rel(d))
    assert rules["W0"] == w("y0")


def test_lemma_right_base():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    rules, _ = verify_lemma_right(d, lemma_rel(d))
    assert rules["W2"] == w("y2")
    assert all(v.is_positive() for v in rules.values())


def test_product_relation_examples():
    for params in [(1, (2, 2), (1,)), (3, (1, 1, 1), (1, 1))]:
        d = DecoratedCycleGraph(*params)
        product = verify_product_relation(d, lemma_rel(d)).results["product"]
        assert product == FreeWord([("W%d" % k, 1) for k, ak in enumerate(d.a)
                                    for _ in range(ak)])


def test_product_relation_rejects_degenerate():
    d = DecoratedCycleGraph(2, (1,), ())
    with pytest.raises(ValueError):
        verify_product_relation(d, lemma_rel(d))


def test_product_relation_reads_the_root_relator():
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    rel = lemma_rel(d)
    for bad in (rel["z"].inverse(), rel["z"] * w("y2", -1), rel["z"] * w("x1", -1)):
        with pytest.raises(RewriteError, match="root relator is not"):
            verify_product_relation(d, dict(rel, z=bad))


def _tampered(rules_fn):
    """rules_fn with the body of its last rule multiplied by its own first
    letter, which keeps it positive and its references earlier."""
    def tampered(a, b):
        rules = list(rules_fn(a, b))
        name, body = rules[-1]
        rules[-1] = (name, body * FreeWord(body.letters[:1]))
        return rules
    return tampered


@pytest.mark.parametrize("side", ["left", "right"])
def test_tampered_lemma_word_is_rejected(monkeypatch, side):
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    cert, pres = certified(d)
    fn = getattr(rewrite, "%s_rules" % side)
    monkeypatch.setattr(rewrite, "%s_rules" % side, _tampered(fn))
    if side == "left":
        checks = (verify_lemma_left, verify_product_relation)
        want = "lemma replay failed: left rule W2 fails"
    else:
        # the check reads the right rules from the certificate
        checks = (verify_lemma_right,)
        cert["steps"][-1]["payload"]["rules"] = [
            [name, format_word(body, fold=False)]
            for name, body in rewrite.right_rules(d.a, d.b)]
        want = "step 6: lemma-right rules fail: right rule W0 fails"
    for check in checks:
        with pytest.raises(RewriteError, match="%s rule W. fails" % side):
            check(d, lemma_rel(d))
    assert verify_certificate(cert, pres) == (False, [want])


def test_product_relation_expands_nothing_beyond_its_left_check(monkeypatch):
    # the product relation follows from the checked left words, so it
    # substitutes exactly the letters its own verify_lemma_left does
    letters = [0]
    substitute = FreeWord.substitute

    def counted(self, mapping):
        out = substitute(self, mapping)
        letters[0] += len(out)
        return out

    monkeypatch.setattr(FreeWord, "substitute", counted)
    for params in [(1, (2, 2), (1,)), (3, (2, 1, 2), (1, 2)), (2, (3, 1, 1, 2), (2, 1, 3))]:
        d = DecoratedCycleGraph(*params)
        rel = lemma_rel(d)
        letters[0] = 0
        verify_lemma_left(d, rel)
        left = letters[0]
        letters[0] = 0
        verify_product_relation(d, rel)
        assert letters[0] == left > 0, params


def test_elimination_is_acyclic():
    # every derived word only mentions the base alphabet
    for m in (1, 2, 4):
        d = DecoratedCycleGraph(m, (2, 1, 2), (2, 1))
        rel = lemma_rel(d)
        el = left_elimination(rel, d.b)
        for sym, word in el.results.items():
            assert word.symbols() <= {"y0", "x1"}
        er = right_elimination(rel, d.b)
        for sym, word in er.results.items():
            assert word.symbols() <= {"y%d" % d.cn, "x%d" % max(m - 1, 1)}


def test_left_and_right_words_expand_to_same_element():
    # both ends express the marked generators; through the eliminations the
    # left expansion of y_{c_k} matches its left ground truth and the right
    # expansion its right ground truth, which were derived from the same
    # relators in opposite orders
    d = DecoratedCycleGraph(4, (2, 1, 2), (1, 2))
    rel = lemma_rel(d)
    left = expand_rules(verify_lemma_left(d, rel)[0], left_alphabet(d.a))
    right = expand_rules(verify_lemma_right(d, rel)[0], right_alphabet(d.m, d.a, d.cn))
    el = left_elimination(rel, d.b).results
    er = right_elimination(rel, d.b).results
    for k, ck in enumerate(d.c):
        assert left["W%d" % k] == el["y%d" % ck]
        assert right["W%d" % k] == er["y%d" % ck]


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(1, 5), st.tuples(*[st.integers(1, 4)] * (n + 1)),
    st.tuples(*[st.integers(1, 4)] * n))))
def test_rules_expand_to_the_eliminations(params):
    # the full expansions are the cross-check: every name of either side's
    # rules, expanded over its alphabet, is the elimination of what it
    # stands for
    m, a, b = params
    d = DecoratedCycleGraph(m, a, b)
    rel = lemma_rel(d)
    left = expand_rules(verify_lemma_left(d, rel)[0], left_alphabet(a))
    right = expand_rules(verify_lemma_right(d, rel)[0], right_alphabet(m, a, d.cn))
    el = left_elimination(rel, b).results
    er = right_elimination(rel, b).results
    c, n = d.c, d.n
    y = lambda res, i: res["y%d" % i]
    for k in range(n + 1):
        assert left["W%d" % k] == y(el, c[k])
        assert right["W%d" % k] == y(er, c[k])
        if k < n:
            assert left["D%d" % k] == y(el, c[k] + 1) * y(el, c[k]).inverse()
        if k > 0:
            assert right["D%d" % k] == y(er, c[k]).inverse() * y(er, c[k] - 1)
    assert set(left) == {"y0", QL} | {"W%d" % k for k in range(n + 1)} \
        | {"D%d" % k for k in range(n)}
    assert set(right) == {"y%d" % d.cn, QR} | {"W%d" % k for k in range(n + 1)} \
        | {"D%d" % k for k in range(1, n + 1)}


def test_grid_small():
    count = 0
    for n in (1, 2):
        for m in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n + 1):
                for b in itertools.product((1, 2), repeat=n):
                    d = DecoratedCycleGraph(m, a, b)
                    rel = lemma_rel(d)
                    verify_lemma_y(rel, b)
                    verify_lemma_left(d, rel)
                    verify_lemma_right(d, rel)
                    verify_product_relation(d, rel)
                    count += 1
    assert count == 3 * (4 * 2 + 8 * 4)


def test_cycle_relators_shapes():
    # the relators the lemmas read off the cycle graph, one per region
    cyclic = lambda text: parse_word(text).canonical_cyclic()
    rel = _rel(3, (1, 1, 1), (1, 1))
    assert set(rel) == {"x1", "x2", "y0", "y1", "y2", "z"}
    assert rel["z"] == parse_word("y2^-1 y1^-1 y0^-1")
    # relator of an interior marked vertex
    assert rel["y1"].canonical_cyclic() == cyclic("y0^-1 y1 y1 y2^-1 y1")
    # m = 1: read off the graph of (2, a, b), x1 is the formal path end
    rel = _rel(1, (2, 2), (1,))
    assert set(rel) == {"x1", "y0", "y1", "z"}
    assert rel["y0"].canonical_cyclic() == cyclic("y0^-1 x1 y0^2 y1^-1 y0")
    assert rel["y1"].canonical_cyclic() == cyclic("y0^-1 y1^2 x1")
    # a cycle graph needs at least one y segment for the lemmas
    with pytest.raises(ValueError):
        verify_lemma_y(_rel(3, (2,), ()), ())


def test_all_verifiers_pass():
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    rel = lemma_rel(d)
    verify_lemma_x(rel, d.m, d.cn)
    verify_lemma_y(rel, d.b)
    verify_lemma_left(d, rel)
    verify_lemma_right(d, rel)
    verify_product_relation(d, rel)
    d = DecoratedCycleGraph(1, (2, 2), (1,))
    rel = lemma_rel(d)
    verify_lemma_left(d, rel)
    verify_lemma_right(d, rel)
    verify_product_relation(d, rel)
