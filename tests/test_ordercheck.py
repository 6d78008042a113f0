import copy
import itertools
import json

import pytest

from braidcover.rewrite import FreeWord
from braidcover.diagram import DecoratedCycleGraph
from braidcover.presentation import (GroupPresentation, AbelianInvariants,
                                     cycle_presentation, greene_presentation,
                                     tietze_simplify)
from braidcover.braid import parse_braid, expand_fulltwist, normalize_type1
from braidcover.diagram import closure_white_graph
from braidcover.ordercheck import (Exhausted, HypothesisNotMet, todd_coxeter,
                                   positive_cone_search, torsion_non_lo,
                                   certify_cycle_non_lo, verify_certificate,
                                   VERDICT_TORSION, VERDICT_INCONCLUSIVE)

from support import kill_generator

w = FreeWord.gen


def test_todd_coxeter_cyclic():
    p = GroupPresentation(("v",), (w("v") ** 5,))
    ct = todd_coxeter(p)
    assert ct.complete and ct.order == 5


def test_todd_coxeter_trivial():
    p = GroupPresentation(("a",), (w("a"),))
    assert todd_coxeter(p).order == 1


def test_todd_coxeter_symmetric_group():
    p = GroupPresentation(("a", "b"),
                          (w("a") ** 2, w("b") ** 2, (w("a") * w("b")) ** 3))
    assert todd_coxeter(p).order == 6


def test_todd_coxeter_quaternion():
    p = GroupPresentation(
        ("a", "b"),
        (w("a") ** 4, w("a") ** 2 * w("b") ** -2,
         w("b") ** -1 * w("a") * w("b") * w("a")))
    assert todd_coxeter(p).order == 8


def test_todd_coxeter_binary_icosahedral():
    p = GroupPresentation(("s", "t"),
                          ((w("s") * w("t")) ** 2 * w("s") ** -3,
                           w("s") ** 3 * w("t") ** -5))
    assert todd_coxeter(p).order == 120


def test_todd_coxeter_exhausts_on_infinite():
    p = GroupPresentation(("a",), ())
    with pytest.raises(Exhausted):
        todd_coxeter(p, max_cosets=500)


def test_todd_coxeter_invariances():
    d = DecoratedCycleGraph(3, (1, 1), (2,))
    kill = kill_generator(cycle_presentation(d), "z")
    order = todd_coxeter(kill).order
    # generator permutation
    perm = GroupPresentation(tuple(reversed(kill.generators)), kill.relators)
    assert todd_coxeter(perm).order == order
    # tietze simplification
    assert todd_coxeter(tietze_simplify(kill)).order == order


def test_coset_table_word_oracle():
    p = GroupPresentation(("v",), (w("v") ** 6,))
    ct = todd_coxeter(p)
    assert ct.is_trivial(w("v") ** 6)
    assert ct.is_trivial(w("v") ** 0)
    assert not ct.is_trivial(w("v") ** 3)


def test_coset_table_dump_deterministic():
    p = GroupPresentation(("a", "b"),
                          (w("a") ** 2, w("b") ** 2, (w("a") * w("b")) ** 3))
    assert todd_coxeter(p).dump() == todd_coxeter(p).dump()


def test_positive_cone_finite_cyclic():
    for k in (2, 3, 5):
        p = GroupPresentation(("x",), (w("x") ** k,))
        ct = todd_coxeter(p)
        witness = positive_cone_search(p, ct.is_trivial, depth=6)
        assert witness is not None
        for signs, word in witness.derivations.items():
            assert not word.is_identity()
            assert ct.is_trivial(word)


def test_positive_cone_infinite_cyclic():
    p = GroupPresentation(("x",), ())
    oracle = lambda word: word.is_identity()   # free reduction decides here
    assert positive_cone_search(p, oracle, depth=10) is None


def test_positive_cone_on_trefoil_cover():
    g = closure_white_graph(expand_fulltwist(parse_braid("s2^3 s1")))
    p = tietze_simplify(greene_presentation(g, kill_root=True))
    ct = todd_coxeter(p)
    assert ct.order == 3
    assert positive_cone_search(p, ct.is_trivial, depth=6) is not None


def test_torsion_verdicts():
    assert torsion_non_lo(AbelianInvariants((5,), 0), True).kind == VERDICT_TORSION
    assert torsion_non_lo(AbelianInvariants((), 1), True).kind == VERDICT_INCONCLUSIVE
    assert torsion_non_lo(AbelianInvariants((4,), 0), False).kind == VERDICT_INCONCLUSIVE
    v = torsion_non_lo(AbelianInvariants((), 0), True)
    assert v.kind == VERDICT_TORSION and "convention" in v.justification


def test_certificate_case1():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    cert = certify_cycle_non_lo(d)
    assert cert.case == 1
    ok, problems = verify_certificate(cert.to_json(), cycle_presentation(d))
    assert ok, problems


def test_certificate_case2():
    d = DecoratedCycleGraph(1, (3, 4), (1,))
    cert = certify_cycle_non_lo(d)
    assert cert.case == 2
    ok, problems = verify_certificate(cert.to_json(), cycle_presentation(d))
    assert ok, problems


def test_certificate_hypothesis_gate():
    with pytest.raises(HypothesisNotMet):
        certify_cycle_non_lo(DecoratedCycleGraph(1, (1, 2), (1,)))
    with pytest.raises(HypothesisNotMet):
        certify_cycle_non_lo(DecoratedCycleGraph(2, (1,), ()))


def test_certificate_tampering_detected():
    d = DecoratedCycleGraph(3, (1, 2), (2,))
    cert = certify_cycle_non_lo(d).to_json()
    pres = cycle_presentation(d)

    bad = copy.deepcopy(cert)
    bad["steps"][0]["sign"] = "+"          # flip the wlog sign
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["steps"][-1]["payload"]["factors"] = ["y0^-1"]   # bogus factorization
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["contradiction"] = [1, 1]
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["params"]["a"] = [1, 1]            # wrong parameters for the presentation
    ok, _ = verify_certificate(bad, pres)
    assert not ok


def test_certificates_for_both_normalizer_shapes():
    # d = 1 normalizations give m > 2 / case 1; d = -1 give m = 1 / case 2
    out = normalize_type1(parse_braid("h s1 s2^-2 s1 s2^-2"))
    d = DecoratedCycleGraph(out.m, out.a, out.b)
    assert certify_cycle_non_lo(d).case == 1
    out = normalize_type1(parse_braid("h^-1 s1 s2^-1 s1 s2^-2"))
    d = DecoratedCycleGraph(out.m, out.a, out.b)
    assert certify_cycle_non_lo(d).case == 2


def test_certificate_grid():
    for n in (1, 2):
        for m in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n + 1):
                for b in itertools.product((1, 2), repeat=n):
                    d = DecoratedCycleGraph(m, a, b)
                    if not d.hypothesis_ok():
                        with pytest.raises(HypothesisNotMet):
                            certify_cycle_non_lo(d)
                        continue
                    cert = certify_cycle_non_lo(d)
                    ok, problems = verify_certificate(
                        cert.to_json(), cycle_presentation(d))
                    assert ok, (m, a, b, problems)


def test_certificate_json_is_serializable():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    cert = certify_cycle_non_lo(d)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    ok, _ = verify_certificate(json.loads(blob), cycle_presentation(d))
    assert ok


def test_coset_table_golden_dump():
    p = GroupPresentation(("v",), (w("v") ** 3,))
    assert todd_coxeter(p).dump() == (
        "coset    v    v^-1\n"
        "    0    1    2\n"
        "    1    2    0\n"
        "    2    0    1\n")


def test_todd_coxeter_more_groups():
    from braidcover.rewrite import parse_word
    # S4 and A5 from standard triangle-ish presentations
    p = GroupPresentation(("a", "b"), (w("a") ** 4, w("b") ** 2,
                                       (w("a") * w("b")) ** 3))
    assert todd_coxeter(p).order == 24
    p = GroupPresentation(("a", "b"), (w("a") ** 5, w("b") ** 2,
                                       (w("a") * w("b")) ** 3))
    assert todd_coxeter(p).order == 60
    # the Fibonacci group F(2,5) is cyclic of order 11; enumerating it
    # exercises heavy coincidence collapsing
    rels = tuple(parse_word(t) for t in
                 ["a b c^-1", "b c d^-1", "c d e^-1", "d e a^-1", "e a b^-1"])
    p = GroupPresentation(("a", "b", "c", "d", "e"), rels)
    table = todd_coxeter(p)
    assert table.order == 11


def test_certificate_verifier_handles_malformed_json():
    d = DecoratedCycleGraph(1, (3, 4), (1,))
    cert = certify_cycle_non_lo(d).to_json()
    pres = cycle_presentation(d)

    bad = copy.deepcopy(cert)
    bad["steps"][3]["payload"]["via"] = "lemma_x"   # wrong discharge for m = 1
    bad["steps"][3]["rule"] = "product_of_positives"
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["steps"][2]["premises"] = [-1]
    ok, problems = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["contradiction"] = "nonsense"
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["steps"][4]["payload"] = {}                 # reduce_negative_power needs fields
    ok, _ = verify_certificate(bad, pres)
    assert not ok

    bad = copy.deepcopy(cert)
    bad["hypothesis"]["ok"] = False
    ok, _ = verify_certificate(bad, pres)
    assert not ok
