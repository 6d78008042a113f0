"""Command line front end: classify, run the full pipeline, batch over grids.

Exit codes: 0 verdict reached, 1 inconclusive, 2 input error, 3 internal
soundness failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .braid import (BraidError, NormalizationError, parse_braid, format_braid,
                    classify_baldwin, expand_fulltwist, exponent_sum,
                    normalize_type1_d1, normalize_type1_dm1, replay_moves,
                    words_cyclically_equal)
from .diagram import (DecoratedCycleGraph, DiagramError, closure_white_graph,
                      goeritz_matrix, is_alternating_closure, to_decorated)
from .presentation import (AbelianInvariants, greene_presentation,
                           cycle_presentation, abelianize, tietze_simplify)
from .ordercheck import (Exhausted, HypothesisNotMet, SoundnessError, Verdict,
                         certify_cycle_non_lo, verify_certificate, todd_coxeter,
                         torsion_non_lo, positive_cone_search,
                         VERDICT_CERTIFIED, VERDICT_FINITE, VERDICT_TORSION,
                         VERDICT_ALTERNATING, VERDICT_INCONCLUSIVE)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_SOUNDNESS = 3


def _canon(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class PipelineFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def run_pipeline(text, max_cosets=10 ** 6, canonical=False, cone_depth=None):
    """Classify, normalize, present and certify one braid word.

    Returns (report dict, exit code).
    """
    t0 = time.perf_counter()
    report = {"input": text}
    try:
        w = parse_braid(text)
    except BraidError as e:
        raise PipelineFailure(EXIT_INPUT, str(e))
    report["braid"] = format_braid(w)
    report["exponent_sum"] = exponent_sum(w)
    cls = classify_baldwin(w)
    report["class"] = cls.to_json()
    code = EXIT_OK
    try:
        if cls.kind == 0:
            report["verdict"] = Verdict(
                VERDICT_INCONCLUSIVE,
                "not in any of the three families; no claim is made",
                machine_checked=False).to_json()
            code = EXIT_INCONCLUSIVE
        elif cls.kind in (2, 3):
            code = _finite_route(report, w, max_cosets, cone_depth)
        elif is_alternating_closure(cls):
            _diagram_block(report, w)
            report["verdict"] = Verdict(
                VERDICT_ALTERNATING,
                "family (1) with d = 0 closes to an alternating diagram; "
                "non-left-orderability holds by the cited theorem on "
                "alternating links and is not machine-checked here",
                machine_checked=False).to_json()
        else:
            code = _cycle_route(report, w, cls)
    except SoundnessError as e:
        report["soundness_error"] = str(e)
        code = EXIT_SOUNDNESS
    if not canonical:
        report["seconds"] = round(time.perf_counter() - t0, 6)
    return report, code


def _diagram_block(report, w):
    """White graph, Goeritz determinant and abelianization of the input word.

    Returns (Greene presentation, determinant, abelian invariants)."""
    expanded = expand_fulltwist(w)
    g = closure_white_graph(expanded)
    det = abs(goeritz_matrix(g).determinant())
    pres = greene_presentation(g, kill_root=True)
    inv = abelianize(pres)
    report["graph"] = g.to_json()
    report["determinant"] = det
    report["presentation"] = pres.to_json()
    report["abelian"] = inv.to_json()
    order = inv.order()
    if order is not None and order != det:
        raise SoundnessError("determinant %d != abelianization order %d"
                             % (det, order))
    if order is None and det != 0:
        raise SoundnessError("free abelian rank with nonzero determinant")
    if {gen for gen, _ in expanded.letters} != {1, 2}:
        # one strand closes off disjointly; graph quantities describe the
        # non-split part of the closure
        report["split_closure"] = True
    return pres, det, inv


def _finite_route(report, w, max_cosets, cone_depth=None):
    greene, _, inv = _diagram_block(report, w)
    pres = tietze_simplify(greene)
    try:
        table = todd_coxeter(pres, max_cosets=max_cosets)
    except Exhausted as e:
        report["verdict"] = Verdict(VERDICT_INCONCLUSIVE, str(e),
                                    machine_checked=False).to_json()
        return EXIT_INCONCLUSIVE
    report["group_order"] = table.order
    h1 = inv.order()
    if h1 is not None and table.order % h1:
        raise SoundnessError("group order %d not divisible by |H1| = %d"
                             % (table.order, h1))
    if cone_depth:
        witness = positive_cone_search(pres, table.is_trivial, depth=cone_depth)
        report["positive_cone"] = (witness.to_json() if witness is not None
                                   else {"found": False, "depth": cone_depth})
    just = ("coset enumeration closed with order %d" % table.order) if table.order > 1 \
        else "coset enumeration closed on the trivial group (not left-orderable by convention)"
    report["verdict"] = Verdict(VERDICT_FINITE, just).to_json()
    return EXIT_OK


def _cycle_route(report, w, cls):
    _, det, inv = _diagram_block(report, w)
    normalize = normalize_type1_d1 if cls.d == 1 else normalize_type1_dm1
    try:
        out = normalize(w)
    except NormalizationError as e:
        raise SoundnessError("normalization failed: %s" % e)
    report["normalization"] = out.to_json()
    replayed = replay_moves(w, out.transcript)
    if not words_cyclically_equal(replayed, out.word):
        raise SoundnessError("transcript does not replay to the claimed word")
    if out.kind == "torus":
        return _torsion_route(report, out, [out.q], det, inv)
    if out.kind == "connected_sum":
        return _torsion_route(report, out, [out.q1, out.q2], det, inv)
    dec = DecoratedCycleGraph(out.m, out.a, out.b)
    graph2 = closure_white_graph(expand_fulltwist(out.word))
    if to_decorated(graph2) != dec:
        raise SoundnessError("normalized word does not rebuild the cycle graph")
    report["decorated"] = dec.to_json()
    pres = cycle_presentation(dec)
    report["cycle_presentation"] = pres.to_json()
    det2 = abs(goeritz_matrix(graph2).determinant())
    if det2 != det:
        raise SoundnessError("normalization changed the diagram determinant")
    try:
        cert = certify_cycle_non_lo(dec)
    except HypothesisNotMet as e:
        report["verdict"] = Verdict(VERDICT_INCONCLUSIVE, str(e),
                                    machine_checked=False).to_json()
        return EXIT_INCONCLUSIVE
    report["certificate"] = cert.to_json()
    ok, problems = verify_certificate(report["certificate"], pres)
    report["recheck"] = {"ok": ok, "problems": problems}
    if not ok:
        raise SoundnessError("certificate recheck failed: %s" % problems)
    report["verdict"] = Verdict(
        VERDICT_CERTIFIED,
        "sign-deduction certificate for the cycle form (case %d)" % cert.case).to_json()
    return EXIT_OK


def _torsion_route(report, outcome, factors, det, inv):
    expected = 1
    for q in factors:
        expected *= abs(q)
    if expected != det:
        if not outcome.notes:
            raise SoundnessError("branch set %s has determinant %d, diagram says %d"
                                 % (factors, expected, det))
        report["branch_set_discrepancy"] = {
            "reported_factors": factors, "diagram_determinant": det,
            "notes": list(outcome.notes)}
    verdicts = []
    if len(factors) == 1:
        verdicts.append(torsion_non_lo(inv, cyclic_known=True))
    else:
        # connected sum of two-bridge branch sets: each factor contributes a
        # finite cyclic free factor, so torsion in any factor obstructs
        for q in factors:
            verdicts.append(torsion_non_lo(
                AbelianInvariants((abs(q),) if abs(q) > 1 else (), 0),
                cyclic_known=True))
    report["torsion_verdicts"] = [v.to_json() for v in verdicts]
    if all(v.kind == VERDICT_TORSION for v in verdicts):
        names = "#".join("T(2,%d)" % q for q in factors)
        just = ("branch set %s has a finite cyclic (or connected sum of "
                "finite cyclic) cover group" % names)
        if "branch_set_discrepancy" in report:
            just += ("; reported branch set is flagged, the verdict rests on "
                     "the diagram invariants (|H1| = %d)" % det)
        report["verdict"] = Verdict(VERDICT_TORSION, just).to_json()
        return EXIT_OK
    report["verdict"] = verdicts[0].to_json()
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_classify(args):
    try:
        w = parse_braid(args.braid)
    except BraidError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    print(_canon(classify_baldwin(w).to_json()))
    return EXIT_OK


def _print_report(report, as_json):
    if as_json:
        print(_canon(report))
        return
    print("braid:     %s" % report.get("braid"))
    print("class:     %s" % _canon(report.get("class", {})))
    if "normalization" in report:
        n = report["normalization"]
        print("normal:    %s (%s)" % (n.get("word"), n.get("outcome")))
    if "determinant" in report:
        print("det:       %d" % report["determinant"])
    if "abelian" in report:
        print("H1:        torsion %s, rank %d" % (report["abelian"]["torsion"],
                                                  report["abelian"]["rank"]))
    if "group_order" in report:
        print("order:     %d" % report["group_order"])
    v = report.get("verdict", {})
    print("verdict:   %s  [%s]" % (v.get("verdict"), v.get("justification")))


def cmd_pipeline(args):
    try:
        report, code = run_pipeline(args.braid, max_cosets=args.max_cosets,
                                    canonical=args.canonical, cone_depth=args.depth)
    except PipelineFailure as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    if args.dot:
        try:
            w = expand_fulltwist(parse_braid(args.braid))
            with open(args.dot, "w") as f:
                f.write(closure_white_graph(w).to_dot())
        except (BraidError, DiagramError) as e:
            print("dot export failed: %s" % e, file=sys.stderr)
            return EXIT_INPUT
    _print_report(report, args.json)
    return code


def _parse_grid_line(line):
    if line.startswith("("):
        body = line.strip("() \t")
        mpart, apart, bpart = [p.strip() for p in body.split(";")]
        a = tuple(int(x) for x in apart.split(",") if x.strip())
        b = tuple(int(x) for x in bpart.split(",") if x.strip()) if bpart else ()
        return ("params", int(mpart), a, b)
    return ("braid", line)


def _batch_one(line, max_cosets):
    """One grid line -> (result entry, counter key).  Exception free."""
    try:
        item = _parse_grid_line(line)
    except (ValueError, IndexError):
        return {"input": line, "error": "unparseable grid line"}, "input_error"
    if item[0] == "braid":
        try:
            report, code = run_pipeline(item[1], max_cosets=max_cosets,
                                        canonical=True)
        except PipelineFailure as e:
            return {"input": line, "error": str(e)}, "input_error"
        if code == EXIT_OK:
            return report, "ok"
        if code == EXIT_SOUNDNESS:
            return report, "soundness_failure"
        return report, "inconclusive"
    _, m, a, b = item
    entry = {"input": line, "params": {"m": m, "a": list(a), "b": list(b)}}
    try:
        dec = DecoratedCycleGraph(m, a, b)
        cert = certify_cycle_non_lo(dec)
        ok, problems = verify_certificate(cert.to_json(), cycle_presentation(dec))
        if not ok:
            entry["error"] = "recheck failed: %s" % problems
            return entry, "soundness_failure"
        entry["verdict"] = VERDICT_CERTIFIED
        return entry, "ok"
    except HypothesisNotMet as e:
        entry["verdict"] = "HypothesisNotMet"
        entry["reason"] = str(e)
        return entry, "hypothesis_not_met"
    except (DiagramError, SoundnessError) as e:
        entry["error"] = str(e)
        return entry, "soundness_failure"


def run_batch(lines, max_cosets=10 ** 6, workers=1):
    """Run the grid; independent lines may fan out across processes, with
    results merged back in input order."""
    tasks = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            tasks.append(line)
    counts = {"ok": 0, "inconclusive": 0, "hypothesis_not_met": 0,
              "input_error": 0, "soundness_failure": 0}
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_batch_one, max_cosets=max_cosets),
                                     tasks))
    else:
        outcomes = [_batch_one(t, max_cosets) for t in tasks]
    results = []
    for entry, key in outcomes:
        results.append(entry)
        counts[key] += 1
    return results, counts


def cmd_batch(args):
    try:
        with open(args.grid) as f:
            lines = f.readlines()
    except OSError as e:
        print("cannot read grid file: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    results, counts = run_batch(lines, max_cosets=args.max_cosets,
                                workers=args.workers)
    if args.json:
        print(_canon({"counts": counts, "results": results}))
    else:
        for key in sorted(counts):
            print("%-20s %d" % (key, counts[key]))
    return EXIT_SOUNDNESS if counts["soundness_failure"] else EXIT_OK


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="braidcover",
        description="three-braid branched double covers: classification, "
                    "presentations, non-left-orderability certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="family membership of a braid word")
    p.add_argument("braid")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("pipeline", help="classify, normalize, present, certify")
    p.add_argument("braid")
    p.add_argument("--json", action="store_true", help="canonical JSON output")
    p.add_argument("--dot", metavar="FILE", help="write the white graph as DOT")
    p.add_argument("--max-cosets", type=int, default=10 ** 6)
    p.add_argument("--depth", type=int, default=None,
                   help="also run the positive-cone search to this depth on "
                        "finite-group routes (corroboration only)")
    p.add_argument("--canonical", action="store_true",
                   help="suppress timing for byte-stable output")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("batch", help="run a grid file of braids or (m;a;b) tuples")
    p.add_argument("grid")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-cosets", type=int, default=10 ** 6)
    p.add_argument("--workers", type=int, default=1,
                   help="fan independent runs out over processes")
    p.set_defaults(func=cmd_batch)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
