"""Checks one benchmark op's outcome against the independent SL2(Z)/Burau
oracle in `tests/b3oracle.py` and against what the generator knows.

`check` returns (problems, decided): an op fails when the list of problems
is not empty, and it is decided when it ends in a verdict other than
Inconclusive.
"""

from __future__ import annotations

import b3oracle
from workloads import Word, family_letters

INCONCLUSIVE = "Inconclusive"
CERTIFIED = "NonLO_Certified"
FINITE = "NonLO_FiniteGroup"

# Verdict kinds a braid of each generated family may end in, besides the
# Inconclusive the pipeline gives when it does not recognise the family.
ALLOWED = {
    (1, 0): {"NonLO_Alternating"},
    (1, 1): {CERTIFIED, "NonLO_Torsion"},
    (1, -1): {CERTIFIED, "NonLO_Torsion"},
    2: {FINITE},
    3: {FINITE},
}
EXCEPTIONAL_ORDERS = {-1: 120, -2: 48, -3: 24}   # family (3), d = 2, by m


def class_word(cls):
    """The canonical family word of a report's class."""
    kind = cls["type"]
    expect = {"family": kind, "d": cls["d"]}
    expect.update({"a": cls["a"]} if kind == 1 else {"m": cls["m"]})
    return Word(family_letters(expect), cls["d"])


def expected_order(expect):
    if expect["family"] == 2:
        return 4 * abs(expect["m"] + 2 * expect["d"])
    if expect["family"] == 3 and expect["d"] == 2:
        return EXCEPTIONAL_ORDERS[expect["m"]]
    return None


def check(op, outcome):
    """outcome is (result entry, counter key) from run_batch, or the
    exception the call raised."""
    if isinstance(outcome, Exception):
        return ["raised %s: %s" % (type(outcome).__name__, outcome)], False
    entry, key = outcome
    if key in ("soundness_failure", "input_error"):
        return ["batch outcome %s: %s" % (key, entry.get("error")
                                          or entry.get("soundness_error"))], False
    expect = op.expect
    if expect["family"] == "tuple":
        verdict = entry.get("verdict")
        if verdict != CERTIFIED:
            return ["tuple with the hypothesis met gave %r" % (verdict,)], False
        return [], True
    return _check_report(op, entry)


def _check_report(op, report):
    problems = []
    expect = op.expect
    verdict = report.get("verdict", {}).get("verdict")
    cls = report.get("class", {})
    if "soundness_error" in report:
        problems.append("soundness error: %s" % report["soundness_error"])
    if "determinant" in report:
        want = b3oracle.burau_determinant(op.word)
        if report["determinant"] != want:
            problems.append("determinant %r, Burau says %d"
                            % (report["determinant"], want))
    if cls.get("type") is not None:
        if b3oracle.conjugacy_invariants(class_word(cls)) != \
                b3oracle.conjugacy_invariants(op.word):
            problems.append("class %s is not conjugate to the input" % cls)
    family = expect["family"]
    allowed = ALLOWED.get((family, expect["d"]), ALLOWED.get(family, set()))
    capped = (family == 2 and expect["m"] == -2 * expect["d"])
    if verdict == INCONCLUSIVE:
        if cls.get("type") is not None and not capped:
            problems.append("Inconclusive on a recognised family member")
    elif verdict not in allowed:
        problems.append("verdict %r not allowed for family %s" % (verdict, expect))
    order = expected_order(expect)
    if verdict == FINITE and order is not None and report.get("group_order") != order:
        problems.append("group order %r, expected %d"
                        % (report.get("group_order"), order))
    if "certificate" in report and not report.get("recheck", {}).get("ok"):
        problems.append("certificate without a passing recheck")
    decided = verdict not in (None, INCONCLUSIVE) and not problems
    return problems, decided
