import copy
import itertools
import json
import os
import random
import sys
import time

import pytest

from braidcover.rewrite import FreeWord
from braidcover.diagram import DecoratedCycleGraph
from braidcover.presentation import (GroupPresentation, AbelianInvariants,
                                     tietze_simplify)
from braidcover.braid import parse_braid
from braidcover.ordercheck import (Exhausted, HypothesisNotMet, InfiniteGroup,
                                   todd_coxeter, cyclic_subgroup,
                                   infinite_witness, torsion_non_lo, verify_certificate,
                                   WITNESS_MAX_GENERATORS,
                                   VERDICT_TORSION, VERDICT_INCONCLUSIVE,
                                   VERDICT_FINITE, subgroup_abelianization)
from braidcover.cli import run_pipeline

from support import (certified, certify, cycle_pres, dump_coset_table,
                     finite_presentation, normalize_type1,
                     reference_infinite_witness,
                     reference_subgroup_abelianization)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import workloads  # noqa: E402

w = FreeWord.gen

QUATERNION = GroupPresentation(
    ("a", "b"),
    (w("a") ** 4, w("a") ** 2 * w("b") ** -2,
     w("b") ** -1 * w("a") * w("b") * w("a")))
BINARY_ICOSAHEDRAL = GroupPresentation(
    ("s", "t"),
    ((w("s") * w("t")) ** 2 * w("s") ** -3, w("s") ** 3 * w("t") ** -5))


def test_todd_coxeter_cyclic():
    p = GroupPresentation(("v",), (w("v") ** 5,))
    ct = todd_coxeter(p)
    assert ct.order == 5


def test_todd_coxeter_trivial():
    p = GroupPresentation(("a",), (w("a"),))
    assert todd_coxeter(p).order == 1


def test_todd_coxeter_symmetric_group():
    p = GroupPresentation(("a", "b"),
                          (w("a") ** 2, w("b") ** 2, (w("a") * w("b")) ** 3))
    assert todd_coxeter(p).order == 6


def test_todd_coxeter_quaternion():
    assert todd_coxeter(QUATERNION).order == 8


def test_todd_coxeter_binary_icosahedral():
    assert todd_coxeter(BINARY_ICOSAHEDRAL).order == 120


def test_todd_coxeter_exhausts_on_infinite():
    p = GroupPresentation(("a",), ())
    with pytest.raises(Exhausted):
        todd_coxeter(p, max_cosets=500)


def test_todd_coxeter_invariances():
    d = DecoratedCycleGraph(3, (1, 1), (2,))
    kill = cycle_pres(d)
    order = todd_coxeter(kill).order
    # generator permutation
    perm = GroupPresentation(tuple(reversed(kill.generators)), kill.relators)
    assert todd_coxeter(perm).order == order
    # tietze simplification
    assert todd_coxeter(tietze_simplify(kill)).order == order


SYMMETRIC3 = GroupPresentation(
    ("a", "b"), (w("a") ** 2, w("b") ** 2, (w("a") * w("b")) ** 3))


def element_order(regular, word):
    """Order of a word, by tracing its powers through the regular action:
    column 2i is generator i, column 2i + 1 its inverse."""
    col = {g: 2 * i for i, g in enumerate(regular.generators)}
    cols = [col[g] + (s == -1) for g, s in word.letters]

    def trace(c):
        for x in cols:
            c = regular.table[c][x]
        return c
    k, c = 1, trace(0)
    while c:
        k, c = k + 1, trace(c)
    return k


@pytest.mark.parametrize("p, h", [
    (SYMMETRIC3, w("a")), (SYMMETRIC3, w("a") * w("b")),
    (QUATERNION, w("a")), (QUATERNION, w("a") * w("b") ** -1),
    (BINARY_ICOSAHEDRAL, w("s")), (BINARY_ICOSAHEDRAL, w("t")),
    (BINARY_ICOSAHEDRAL, w("s") * w("t")),
])
def test_subgroup_enumeration_order(p, h):
    regular = todd_coxeter(p)
    table = todd_coxeter(p, subgroup=(h,))
    assert table.index * element_order(regular, h) == regular.order
    assert table.order == regular.order
    assert len(table.table) == table.index < regular.order


def test_oracle_refuses_a_subgroup_table():
    # a table over a nontrivial subgroup has fewer rows than the group
    table = todd_coxeter(SYMMETRIC3, subgroup=(w("a"),))
    assert table.index == 3 and table.order == 6
    # a subgroup word that is trivial in G leaves the regular action
    table = todd_coxeter(SYMMETRIC3, subgroup=(w("a") ** 2,))
    assert table.index == table.order == 6


def test_infinite_subgroup_proves_the_group_infinite():
    # Z x Z/2: <a> has index 2 and is infinite cyclic
    p = GroupPresentation(("a", "b"), (w("a") * w("b") * w("a") ** -1 * w("b") ** -1,
                                       w("b") ** 2))
    with pytest.raises(InfiniteGroup):
        todd_coxeter(p, subgroup=(w("a"),))
    with pytest.raises(ValueError):
        todd_coxeter(p, subgroup=(w("a"), w("b")))


def test_cyclic_subgroup_choice():
    # the largest |exponent| of a syllable in any relator
    p = GroupPresentation(("a", "b", "c"),
                          (w("a") * w("b") ** 2 * w("a") ** 2, w("c") ** -3 * w("a")))
    assert cyclic_subgroup(p) == (w("c"),)
    # a tie goes to the least name; syllables are not merged across the seam
    p = GroupPresentation(("a", "b"), (w("b") ** 2 * w("a") * w("b") ** 2,
                                       w("a") ** -2))
    assert cyclic_subgroup(p) == (w("a"),)
    # the finite route's family (2) presentation: H = <w2>, of index 2
    p = finite_presentation("h s2^4000")
    assert cyclic_subgroup(p) == (w("w2"),)
    assert todd_coxeter(p, subgroup=cyclic_subgroup(p)).index == 2
    assert cyclic_subgroup(GroupPresentation(("v",), (w("v") ** 5,))) == (w("v"),)
    assert cyclic_subgroup(GroupPresentation(("a", "b"), ())) == (w("a"),)
    assert cyclic_subgroup(GroupPresentation((), ())) == ()


def test_subgroup_route_matches_the_regular_action_on_the_finite_workload():
    closed = 0
    for op in workloads.generate("finite", 1):
        p = finite_presentation(op.line)
        if infinite_witness(p) is not None:
            continue
        table = todd_coxeter(p, subgroup=cyclic_subgroup(p))
        assert table.order == todd_coxeter(p).order, op.line
        closed += 1
    assert closed >= 60


def test_h_s2_300_closes():
    # family (2): the order is 4 |m + 2d|, used here only as an oracle
    report, code = run_pipeline("h s2^300", canonical=True)
    assert code == 0
    assert report["verdict"]["verdict"] == VERDICT_FINITE
    assert report["group_order"] == 4 * abs(300 + 2 * 1) == 1208


def test_witness_flags_infinite_groups():
    # Z/2 * Z/2: only the map sending both generators to 1 has a kernel
    # with infinite abelianization (it is <ab>, infinite cyclic)
    dihedral = GroupPresentation(("a", "b"), (w("a") ** 2, w("b") ** 2))
    assert infinite_witness(dihedral) == {"a": 1, "b": 1}
    assert infinite_witness(GroupPresentation(("a",), ())) == {"a": 1}


def test_witness_passes_finite_groups():
    for p in (QUATERNION, BINARY_ICOSAHEDRAL,
              GroupPresentation(("v",), (w("v") ** 6,))):
        assert infinite_witness(p) is None


def test_witness_caps_the_mod_2_dimension():
    def free_product(k):
        gens = tuple("g%d" % i for i in range(k))
        return GroupPresentation(gens, tuple(w(g) ** 2 for g in gens))
    assert infinite_witness(free_product(WITNESS_MAX_GENERATORS)) is not None
    assert infinite_witness(free_product(WITNESS_MAX_GENERATORS + 1)) is None


def random_presentation(rng):
    gens = tuple("g%d" % i for i in range(rng.randint(1, 8)))
    relators = []
    for _ in range(rng.randint(0, len(gens) + 2)):
        r = FreeWord([(rng.choice(gens), rng.choice((1, -1)))
                      for _ in range(rng.randint(1, 5))])
        if r:
            relators.append(r)
    return GroupPresentation(gens, tuple(relators))


def test_witness_agrees_with_the_gf2_basis_search():
    rng = random.Random(18)
    found = 0
    for _ in range(1000):
        p = random_presentation(rng)
        eps = infinite_witness(p)
        assert (eps is None) == (reference_infinite_witness(p) is None), p
        if eps is None:
            continue
        found += 1
        assert any(eps.values()), p
        for r in p.relators:
            assert sum(eps[sym] for sym, _ in r.letters) % 2 == 0, p
        table = [[c ^ eps[g] for g in p.generators for _ in (0, 1)] for c in (0, 1)]
        assert subgroup_abelianization(p, table).rank > 0, p
    assert 0 < found < 1000


def test_subgroup_abelianization_of_index2_kernels():
    # <a^2> in Z/4 is Z/2; an index-2 subgroup of the free group of rank 2
    # is free of rank 3
    inv = subgroup_abelianization(GroupPresentation(("a",), (w("a") ** 4,)),
                                  [[1, 1], [0, 0]])
    assert inv.to_json() == {"torsion": [2], "rank": 0}
    inv = subgroup_abelianization(GroupPresentation(("a", "b"), ()),
                                  [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert inv.to_json() == {"torsion": [], "rank": 3}


def finite_route_tables(p):
    """The two-coset table of every map onto Z/2 that infinite_witness may
    try on p, and the table of the cyclic subgroup the finite route
    enumerates when no kernel has infinite abelianization."""
    gens = p.generators
    tables = []
    for bits in range(1, 1 << len(gens)):
        eps = {g: bits >> i & 1 for i, g in enumerate(gens)}
        if not any(sum(eps[sym] for sym, _ in r.letters) & 1 for r in p.relators):
            tables.append([[c ^ eps[g] for g in gens for _ in (0, 1)] for c in (0, 1)])
    if infinite_witness(p) is None:
        tables.append(todd_coxeter(p, subgroup=cyclic_subgroup(p)).table)
    return tables


# D12 of order 24, its relators spelled with powers past the length of the
# cycles they walk, in both signs: a^-36 is three laps of a's 12-cycle in
# the regular action, b^4 two laps of b's 2-cycles
DIHEDRAL12 = GroupPresentation(
    ("a", "b"), (w("a") ** 12, w("b") ** -2, (w("a") * w("b")) ** 2,
                 w("a") ** -36 * w("b") ** 4))


def test_syllable_rewrite_matches_the_letter_scan():
    checked = 0
    lines = sorted({op.line for seed in (1, 2) for op in workloads.generate("finite", seed)})
    for line in lines:
        p = finite_presentation(line)
        for rows in finite_route_tables(p):
            assert subgroup_abelianization(p, rows) == \
                reference_subgroup_abelianization(p, rows), line
            checked += 1
    assert checked > 150
    # the regular action and cyclic subgroups of groups with a^4, b^-2,
    # s^-3 and t^-5 in their relators
    assert todd_coxeter(DIHEDRAL12).order == 24
    a, b = w("a"), w("b")
    for p, subgroups in [(SYMMETRIC3, (a, b, a * b)),
                         (QUATERNION, (a, b, a * b ** -1, a ** 2)),
                         (BINARY_ICOSAHEDRAL, (w("s"), w("t"), w("s") * w("t"))),
                         (DIHEDRAL12, (a, a ** 4, b, a * b))]:
        for h in ((),) + tuple((x,) for x in subgroups):
            rows = todd_coxeter(p, subgroup=h).table
            assert subgroup_abelianization(p, rows) == \
                reference_subgroup_abelianization(p, rows), (p, h)
    # a column that is no permutation is refused, not walked forever
    with pytest.raises(ValueError):
        subgroup_abelianization(GroupPresentation(("a",), ()), [[1, 1], [1, 0]])


def test_witness_passes_the_finite_workload():
    # every family (2)/(3) member there has a finite group but h^-1 s2^2
    checked = 0
    for op in workloads.generate("finite", 1):
        if op.line == "h^-1 s2^2":
            continue
        assert infinite_witness(finite_presentation(op.line)) is None, op.line
        checked += 1
    assert checked >= 60


def test_infinite_dihedral_lines_end_fast():
    for line in ("h^-1 s2^2", "h s2^-2"):
        t0 = time.perf_counter()
        report, code = run_pipeline(line, canonical=True)
        assert time.perf_counter() - t0 < 1.0, line
        assert code == 1
        assert report["verdict"]["verdict"] == VERDICT_INCONCLUSIVE
        assert "index-2 subgroup" in report["verdict"]["justification"]


def test_coset_table_dump_deterministic():
    p = GroupPresentation(("a", "b"),
                          (w("a") ** 2, w("b") ** 2, (w("a") * w("b")) ** 3))
    assert dump_coset_table(todd_coxeter(p)) == dump_coset_table(todd_coxeter(p))


def test_torsion_verdicts():
    assert torsion_non_lo(AbelianInvariants((5,), 0)).kind == VERDICT_TORSION
    assert torsion_non_lo(AbelianInvariants((), 1)).kind == VERDICT_INCONCLUSIVE
    v = torsion_non_lo(AbelianInvariants((), 0))
    assert v.kind == VERDICT_TORSION and "convention" in v.justification


def test_certificate_case1():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    cert = certify(d)
    assert cert.case == 1
    ok, problems = verify_certificate(cert.to_json(), cycle_pres(d))
    assert ok, problems


def test_certificate_case2():
    d = DecoratedCycleGraph(1, (3, 4), (1,))
    cert = certify(d)
    assert cert.case == 2
    ok, problems = verify_certificate(cert.to_json(), cycle_pres(d))
    assert ok, problems


def test_certificate_hypothesis_gate():
    with pytest.raises(HypothesisNotMet):
        certify(DecoratedCycleGraph(1, (1, 2), (1,)))
    with pytest.raises(HypothesisNotMet):
        certify(DecoratedCycleGraph(2, (1,), ()))


def test_certificate_tampering_detected():
    d = DecoratedCycleGraph(3, (1, 2), (2,))
    cert = certify(d).to_json()
    pres = cycle_pres(d)

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

    bad = copy.deepcopy(cert)
    bad["params"] = {"m": 2, "a": [1], "b": []}     # n = 0: no presentation
    assert verify_certificate(bad, pres) == (
        False, ["hypothesis fails for the stated parameters: n = 0"])

    bad = copy.deepcopy(cert)
    bad["steps"][2]["premises"] = ["0"]     # a premise that is not a step index
    assert verify_certificate(bad, pres) == (
        False, ["step 2 cites '0', which is not an earlier step"])

    other = cycle_pres(DecoratedCycleGraph(3, (1, 1, 1), (1, 1)))
    assert verify_certificate(cert, other) == (
        False, ["presentation does not match the certificate parameters"])

    # parameters far larger than the presentation are refused before
    # anything is built from them
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    bad = certify(d).to_json()
    bad["params"]["a"] = [2, 1, 100000]
    t0 = time.perf_counter()
    assert verify_certificate(bad, cycle_pres(d)) == (
        False, ["presentation does not match the certificate parameters"])
    assert time.perf_counter() - t0 < 0.5

    # a genuine certificate of that shape with a_n = 3000 rechecks in time
    # about linear in its relators' length
    d = DecoratedCycleGraph(3, (2, 1, 3000), (1, 2))
    cert = certify(d).to_json()
    pres = cycle_pres(d)
    t0 = time.perf_counter()
    assert verify_certificate(cert, pres) == (True, [])
    assert time.perf_counter() - t0 < 0.2


def test_long_telescopes_recheck_fast():
    # each telescope relator is checked once, by its one-step recursion,
    # so the recheck is linear in a segment's length b_k and in m
    for params in [(3, (2, 2), (500,)), (1000, (2, 1, 2), (1, 2))]:
        d = DecoratedCycleGraph(*params)
        cert, pres = certified(d)
        t0 = time.perf_counter()
        assert verify_certificate(cert, pres) == (True, [])
        assert time.perf_counter() - t0 < 0.5, params


# each over-large exponent, with a = (2, 1, 2) and b = (1, 2), gives the
# problem it must give; the largest of m, a_i and b_i is 3 at m = 3, 2 at m = 1
EXPONENT_TAMPERING = [
    ("rule", 3, (6, "rules", 2), ["W1", "W2 D2^1000000"],
     "step 6: malformed (exponent D2^1000000 exceeds 3)"),
    ("element", 3, (0, "element"), "y0^-1000000",
     "malformed steps: exponent y0^-1000000 exceeds 3"),
    ("factor", 3, (6, "factors", 0), "y3^4", "step 6: malformed (exponent y3^4 exceeds 3)"),
    ("prefix", 1, (4, "prefix"), "y3^1000000",
     "step 4: malformed (exponent y3^1000000 exceeds 2)"),
    ("k", 1, (4, "k"), 3, "step 4: needs exponent in 1..2"),
]


@pytest.mark.parametrize("m, where, value, want", [t[1:] for t in EXPONENT_TAMPERING],
                         ids=[t[0] for t in EXPONENT_TAMPERING])
def test_certificate_exponents_are_bounded_before_expansion(m, where, value, want):
    d = DecoratedCycleGraph(m, (2, 1, 2), (1, 2))
    cert, pres = certified(d)
    step = cert["steps"][where[0]]
    place = step if where[1] == "element" else step["payload"]
    if len(where) == 3:
        place[where[1]][where[2]] = value
    else:
        place[where[1]] = value
    t0 = time.perf_counter()
    result = verify_certificate(cert, pres)
    assert time.perf_counter() - t0 < 0.5
    assert result == (False, [want])


# the right rules of (3; 2,1,2; 1,2) are W2 = y3, D2 = qR, W1 = W2 D2^2,
# D1 = W1 D2 and W0 = W1 D1; each tampering names the problem it must give
RULE_TAMPERING = [
    ("exponent", {2: ["W1", "W2 D2^3"]}, "right rule W1 fails"),
    ("forward", {2: ["W1", "W0 D2^2"]}, "right rule W1 refers to W0, defined after it"),
    ("self", {3: ["D1", "D1 D2"]}, "right rule D1 refers to itself"),
    ("cyclic", {2: ["W1", "D1"], 3: ["D1", "W1 D2"]},
     "right rule W1 refers to D1, defined after it"),
    ("unknown", {4: ["W0", "W1 Q1"]}, "right rule W0 refers to unknown symbol Q1"),
    ("terminal", {4: ["W0", "y0"]}, "right rule W0 refers to unknown symbol y0"),
    ("negative", {4: ["W0", "W1 D1^-1"]}, "right rule W0 is not a nonempty positive word"),
    ("empty", {4: ["W0", "1"]}, "right rule W0 is not a nonempty positive word"),
    ("twice", {3: ["W1", "W2 D2^2"]}, "right rules: W1 has two rules"),
    ("other side", {3: ["D0", "W1 D2"]}, "right rules: no rule D0 on this side"),
]


@pytest.mark.parametrize("edits, want", [t[1:] for t in RULE_TAMPERING],
                         ids=[t[0] for t in RULE_TAMPERING])
def test_certificate_rule_tampering_detected(edits, want):
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    cert, pres = certified(d)
    rules = cert["steps"][6]["payload"]["rules"]
    for i, rule in edits.items():
        rules[i] = rule
    assert verify_certificate(cert, pres) == (
        False, ["step 6: lemma-right rules fail: " + want])


def test_certificate_rules_must_reach_y0():
    d = DecoratedCycleGraph(3, (2, 1, 2), (1, 2))
    cert, pres = certified(d)
    payload = cert["steps"][6]["payload"]
    for rules in ([], payload["rules"][:-1]):   # none, or no rule for W0
        payload["rules"] = rules
        ok, problems = verify_certificate(cert, pres)
        assert not ok and len(problems) == 1 and problems[0].startswith("step 6: ")
    for rules in ("nonsense", [["W2"]], [[["W2"], "y3"]], [["W2", 7]]):
        payload["rules"] = rules
        ok, problems = verify_certificate(cert, pres)
        assert not ok and problems[0].startswith("step 6: malformed"), rules


def _ladder_certificate_bytes(n):
    """Canonical bytes of the rechecked certificate of the ladder cycle,
    m = 3, a = (1,)*(n+1), b = (1, 2, ..., 2, 1)."""
    d = DecoratedCycleGraph(3, (1,) * (n + 1), (1,) + (2,) * (n - 2) + (1,))
    cert = certify(d).to_json()
    assert verify_certificate(cert, cycle_pres(d)) == (True, [])
    return len(json.dumps(cert, sort_keys=True, separators=(",", ":")))


def test_certificate_size_grows_linearly_on_the_ladder():
    # the lemma-right rules are O(n); the factor list they replaced had
    # one entry per letter of a word that grew about 4x per unit of n
    size = {n: _ladder_certificate_bytes(n) for n in (8, 16, 32)}
    assert size[16] - size[8] <= 64 * 8
    assert size[32] - size[16] <= 64 * 16
    assert _ladder_certificate_bytes(50) <= size[32] + 64 * 18


def test_certificates_for_both_normalizer_shapes():
    # d = 1 normalizations give m > 2 / case 1; d = -1 give m = 1 / case 2
    out = normalize_type1(parse_braid("h s1 s2^-2 s1 s2^-2"))
    d = DecoratedCycleGraph(out.m, out.a, out.b)
    assert certify(d).case == 1
    out = normalize_type1(parse_braid("h^-1 s1 s2^-1 s1 s2^-2"))
    d = DecoratedCycleGraph(out.m, out.a, out.b)
    assert certify(d).case == 2


def test_certificate_grid():
    for n in (1, 2):
        for m in (1, 2, 3):
            for a in itertools.product((1, 2), repeat=n + 1):
                for b in itertools.product((1, 2), repeat=n):
                    d = DecoratedCycleGraph(m, a, b)
                    if not d.hypothesis_ok():
                        with pytest.raises(HypothesisNotMet):
                            certify(d)
                        continue
                    cert = certify(d)
                    ok, problems = verify_certificate(
                        cert.to_json(), cycle_pres(d))
                    assert ok, (m, a, b, problems)


def test_certificate_json_is_serializable():
    d = DecoratedCycleGraph(3, (1, 1, 1), (1, 1))
    cert = certify(d)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    ok, _ = verify_certificate(json.loads(blob), cycle_pres(d))
    assert ok


def test_coset_table_golden_dump():
    p = GroupPresentation(("v",), (w("v") ** 3,))
    assert dump_coset_table(todd_coxeter(p)) == (
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
    cert = certify(d).to_json()
    pres = cycle_pres(d)

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
