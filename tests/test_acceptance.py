"""Acceptance suite: one test per criterion, one PASS line each.

Criterion 1 runs the full parameter grid for n <= 4, a_i and b_i in 1..3:
22,140 tuples, 19,683 of them at n = 4, inside its one-minute budget.  The
lemma rules are checked one local identity at a time, so no lemma word is
expanded and a tuple costs about a millisecond.
"""

import itertools
import random
import time

from braidcover.braid import (TWIST_NEG, TWIST_POS, BraidWord, classify_baldwin,
                              expand_fulltwist, parse_braid)
from braidcover.diagram import (DecoratedCycleGraph, closure_white_graph,
                                goeritz_matrix)
from braidcover.presentation import greene_presentation, abelianize
from braidcover.rewrite import (FreeWord, verify_lemma_x, verify_lemma_y,
                                verify_lemma_right, verify_product_relation)
from braidcover.ordercheck import verify_certificate, todd_coxeter
from b3oracle import braids_equal
from support import (certified, conjugated_unit_form, cycle_pres, finite_presentation,
                     lemma_rel, normalize_type1, unit_form)
from test_presentation import parallel_graph

w = FreeWord.gen


def _report(n, text):
    print("[PASS] criterion %d: %s" % (n, text))


def _ab_grid(max_n, lo=1, hi=3):
    for n in range(1, max_n + 1):
        for a in itertools.product(range(lo, hi + 1), repeat=n + 1):
            for b in itertools.product(range(lo, hi + 1), repeat=n):
                yield a, b


def test_criterion_1_lemma_replay_suite():
    t0 = time.time()
    for m in range(1, 9):
        verify_lemma_x(lemma_rel(DecoratedCycleGraph(m, (1, 1), (1,))), m, 1)
    count = 0
    ms = itertools.cycle(range(1, 7))
    for n in range(1, 5):
        for b in itertools.product(range(1, 4), repeat=n):
            # the segments' relators do not depend on m or a, so their
            # forms serve every tuple with this b
            segments = verify_lemma_y(lemma_rel(DecoratedCycleGraph(1, (1,) * (n + 1), b)), b)
            for a in itertools.product(range(1, 4), repeat=n + 1):
                d = DecoratedCycleGraph(next(ms), a, b)
                rel = lemma_rel(d)
                verify_lemma_right(d, rel, None, segments)
                # checks the left rules through verify_lemma_left
                verify_product_relation(d, rel, segments)
                count += 1
    elapsed = time.time() - t0
    assert count == 27 + 243 + 2187 + 19683
    assert elapsed < 60, "lemma suite took %.1fs" % elapsed
    _report(1, "lemma x (m <= 8) and y/left/right/product on %d instances "
               "in %.1fs" % (count, elapsed))


def _family1_words(dsign, max_n=4, max_a=3):
    prefix = "h" if dsign == 1 else "h^-1"
    for n in range(1, max_n + 1):
        for a in itertools.product(range(max_a + 1), repeat=n):
            if not any(a):
                continue
            text = prefix
            for ai in a:
                text += " s1 s2^-%d" % ai if ai else " s1"
            yield text


def test_criterion_2_certificate_suite():
    cycles = failures = total = 0
    for dsign in (1, -1):
        for text in _family1_words(dsign):
            total += 1
            out = normalize_type1(parse_braid(text))
            if out.kind != "cycle":
                continue
            cycles += 1
            d = DecoratedCycleGraph(out.m, out.a, out.b)
            ok, problems = verify_certificate(*certified(d))
            if not ok:
                failures += 1
    assert failures == 0
    assert cycles > 100
    _report(2, "%d/%d grid braids normalized to cycle forms, every "
               "certificate rechecked, 0 soundness failures" % (cycles, total))


def test_criterion_3_finite_groups():
    expected = [("h^2 s1^-1 s2^-1", 120, 1), ("h^2 s1^-2 s2^-1", 48, 2),
                ("h^2 s1^-3 s2^-1", 24, 3)]
    for text, order, h1 in expected:
        g = closure_white_graph(expand_fulltwist(parse_braid(text)))
        det = abs(goeritz_matrix(g).determinant())
        pres = finite_presentation(text)
        t0 = time.time()
        table = todd_coxeter(pres, max_cosets=10 ** 6)
        elapsed = time.time() - t0
        inv = abelianize(pres)
        assert table.order == order, text
        assert elapsed < 10
        assert (inv.order(), det) == (h1, h1), text
    _report(3, "exceptional family (3) branch sets give orders 120/48/24, "
               "abelianizations Z/1, Z/2, Z/3 = Goeritz determinants")


def test_criterion_4_determinant_consistency():
    rng = random.Random(404)
    checked = 0
    words = []
    for d in (-1, 0, 1):
        for _ in range(16):
            n = rng.randint(1, 4)
            a = [rng.randint(0, 3) for _ in range(n)]
            if not any(a):
                a[rng.randrange(n)] = rng.randint(1, 3)
            text = {1: "h", -1: "h^-1", 0: ""}[d]
            for ai in a:
                text += " s1 s2^-%d" % ai if ai else " s1"
            words.append(text.strip())
    words += ["h s2^%d" % m for m in range(1, 5)]
    words += ["h^-1 s2^%d" % m for m in range(1, 4)]
    words += ["h^2 s1^-1 s2^-1", "h s1^-2 s2^-1", "s1^-3 s2^-1", "h^-1 s1^-1 s2^-1"]
    from b3oracle import burau_determinant
    for text in words:
        word = expand_fulltwist(parse_braid(text))
        g = closure_white_graph(word)
        det = abs(goeritz_matrix(g).determinant())
        inv = abelianize(greene_presentation(g))
        if inv.rank:
            assert det == 0, text
        else:
            assert det == inv.order(), text
        # third, representation-theoretic value for the same quantity
        assert det == burau_determinant(word), text
        checked += 1
    assert checked >= 50
    _report(4, "|det Goeritz| = |H1| = Burau determinant on %d sampled braids"
            % checked)


def test_criterion_5_torus_calibration():
    for k in range(1, 13):
        g = parallel_graph(k)
        inv = abelianize(greene_presentation(g))
        assert inv.order() == k
    _report(5, "k parallel edges abelianize to Z/k for 1 <= k <= 12")


def test_criterion_6_normalization_soundness():
    # each grid word, and the same word with its twist spelled out, whose
    # class moves extract it: the moves replay to a unit form of the class,
    # the conjugator takes that unit form to N (or to exchange(mirror(N)))
    # by the oracle's (exponent sum, SL2(Z)) pair, and the postconditions
    # hold
    total = cycles = 0
    for dsign in (1, -1):
        for text in _family1_words(dsign):
            plain = parse_braid(text)
            spelled = BraidWord((TWIST_POS if dsign == 1 else TWIST_NEG)[0] + plain.letters)
            for win in (plain, spelled):
                cls, u = unit_form(win)
                assert cls == classify_baldwin(plain), text
                reached = classify_baldwin(u)
                assert reached == cls and not reached.moves, text
                out = normalize_type1(win)
                assert braids_equal(*conjugated_unit_form(u, out)), text
                if out.kind == "cycle":
                    cycles += 1
                    if dsign == 1:
                        assert out.m > 2, text
                    else:
                        assert out.m == 1 and out.a[0] > 1 and out.a[-1] > 1, text
                total += 1
    _report(6, "all %d class moves replay to a unit form of their class, every "
               "conjugator passes the element check, cycle-form postconditions "
               "hold on %d instances" % (total, cycles))


def test_criterion_8_generator_count():
    # c_n + m + 1 regions: a generator for each but the killed root, and a
    # relator for each
    count = 0
    for a, b in _ab_grid(3):
        d = DecoratedCycleGraph(2, a, b)
        pres = cycle_pres(d)
        assert len(pres.generators) + 1 == len(pres.relators) == d.cn + d.m + 1
        count += 1
    _report(8, "cycle presentation has c_n + m + 1 regions, the root killed, on "
               "%d instances" % count)
