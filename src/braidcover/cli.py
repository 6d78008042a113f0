"""Command line front end: classify, run the full pipeline, batch over grids.

Exit codes: 0 verdict reached, 1 inconclusive, 2 input error, 3 internal
soundness failure.
"""

from __future__ import annotations

import json
import sys
import time
from math import prod

from .braid import (BraidError, BraidWord, NormalizationError, parse_braid,
                    format_braid, classify_baldwin, expand_fulltwist, exponent_sum,
                    mirror, normalize_type1_d1, normalize_type1_dm1, replay_moves,
                    sl2_matrix, words_cyclically_equal, MAX_LETTERS)
from .diagram import (DecoratedCycleGraph, DegenerateDiagram, DiagramError,
                      closure_white_graph, cycle_graph_from_params, cycle_names,
                      graph_dot, to_decorated)
from .presentation import (AbelianInvariants, greene_presentation,
                           cycle_presentation, abelianize, tietze_simplify)
from .ordercheck import (Exhausted, HypothesisNotMet, InfiniteGroup,
                         SoundnessError, Verdict, certify_cycle_non_lo,
                         verify_certificate, todd_coxeter, cyclic_subgroup,
                         infinite_witness, torsion_non_lo,
                         VERDICT_CERTIFIED, VERDICT_FINITE, VERDICT_TORSION,
                         VERDICT_ALTERNATING, VERDICT_INCONCLUSIVE)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_SOUNDNESS = 3


def _canon(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _internal_error(e):
    """'internal error: <type> in <function that raised it>: <message>'."""
    tb = e.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    return "internal error: %s in %s: %s" % (type(e).__name__,
                                             tb.tb_frame.f_code.co_name, e)


class PipelineFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def run_pipeline(text, max_cosets=10 ** 6, canonical=False):
    """Classify, normalize, present and certify one braid word.

    Returns (report dict, exit code).  Raises PipelineFailure with exit 2
    for input the parser refuses, and with exit 3 for an exception no
    stage handles, named by `_internal_error`.
    """
    t0 = time.perf_counter()
    report = {"input": text}
    try:
        w = parse_braid(text)
    except BraidError as e:
        raise PipelineFailure(EXIT_INPUT, str(e))
    code = EXIT_OK
    try:
        report["braid"] = format_braid(w)
        report["exponent_sum"] = exponent_sum(w)
        cls = classify_baldwin(w)
        report["class"] = cls.to_json()
        if cls.kind == 0:
            why = ("the twist search stopped at its cap of %d states before "
                   "any state matched a family; no claim is made" % cls.stopped_at
                   if cls.stopped_at else
                   "not in any of the three families; no claim is made")
            report["verdict"] = Verdict(VERDICT_INCONCLUSIVE, why,
                                        machine_checked=False).to_json()
            code = EXIT_INCONCLUSIVE
        elif cls.kind in (2, 3):
            code = _finite_route(report, w, cls, max_cosets)
        elif cls.d == 0:        # family (1): its closure is alternating
            _diagram_block(report, w, w)
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
    except Exception as e:
        raise PipelineFailure(EXIT_SOUNDNESS, _internal_error(e))
    if not canonical:
        report["seconds"] = round(time.perf_counter() - t0, 6)
    return report, code


def _diagram_block(report, w, drawn):
    """(white graph, Greene presentation, H1) of `drawn`, which closes to the
    link of the input w.  The exponent matrix is the Goeritz matrix, so one
    Smith form gives H1 and the determinant, |H1| or 0, checked against
    |2 - tr| of w in SL2(Z), which shares no code with the diagram."""
    g = closure_white_graph(expand_fulltwist(drawn))
    pres = greene_presentation(g)
    inv = abelianize(pres)
    det = inv.order() or 0
    report.update(graph=g.to_json(), determinant=det, presentation=pres.to_json(),
                  abelian=inv.to_json())
    (a, _), (_, d) = sl2_matrix(w)
    if det != abs(2 - a - d):
        raise SoundnessError("determinant %d != |2 - trace| = %d of the input's "
                             "SL2(Z) image" % (det, abs(2 - a - d)))
    return g, pres, inv


def _finite_route(report, w, cls, max_cosets):
    """Families (2) and (3): present the member the class names, in the
    colouring with fewer regions, and decide its group.

    The class moves, replayed from w, must reach the member h^d s2^m or
    h^d s2^-1 s1^m, built from the class a run at a time.  Of it and its
    s1 <-> s2 exchange (conjugates, so one closure) the one with fewer s2
    letters is presented, the member on a tie: the exchange h^d s1^m for
    family (2) with m != 0, else the member.  That is at most 7
    generators, whatever w is, and Tietze only removes some.  Each of
    their at most 2^7 - 1 maps onto Z/2 is tried: a kernel with infinite
    abelianization, of index 2, proves the group infinite
    (inconclusive).  Else the cosets of a cyclic H are enumerated and |H|
    read off the closed table.  A cap hit or an infinite H is inconclusive.
    """
    member = BraidWord.from_runs([(2, cls.m)] if cls.kind == 2 else [(2, -1), (1, cls.m)],
                                 cls.d)
    if not words_cyclically_equal(replay_moves(w, cls.moves), member):
        raise SoundnessError("the class moves do not replay to %s" % format_braid(member))
    exchange = cls.kind == 2 and cls.m != 0
    presented = BraidWord.from_runs([(1, cls.m)], cls.d) if exchange else member
    report["presented"] = {"word": format_braid(presented), "exchange": exchange}
    _, greene, inv = _diagram_block(report, w, presented)
    pres = tietze_simplify(greene)
    eps = infinite_witness(pres)
    if eps is not None:
        report["verdict"] = Verdict(
            VERDICT_INCONCLUSIVE,
            "the kernel of the map onto Z/2 sending %s to 1 is an index-2 "
            "subgroup with infinite abelianization, so the group is infinite "
            "and coset enumeration cannot close"
            % ", ".join(g for g in pres.generators if eps[g]),
            machine_checked=False).to_json()
        return EXIT_INCONCLUSIVE
    try:
        table = todd_coxeter(pres, max_cosets=max_cosets,
                             subgroup=cyclic_subgroup(pres))
    except (Exhausted, InfiniteGroup) as e:
        report["verdict"] = Verdict(VERDICT_INCONCLUSIVE, str(e),
                                    machine_checked=False).to_json()
        return EXIT_INCONCLUSIVE
    report["group_order"] = table.order
    h1 = inv.order()
    if h1 is not None and table.order % h1:
        raise SoundnessError("group order %d not divisible by |H1| = %d"
                             % (table.order, h1))
    just = ("coset enumeration closed with order %d" % table.order) if table.order > 1 \
        else "coset enumeration closed on the trivial group (not left-orderable by convention)"
    report["verdict"] = Verdict(VERDICT_FINITE, just).to_json()
    return EXIT_OK


def _cycle_route(report, w, cls):
    """Family (1), d = +-1: the class moves replay w to a unit form u, from
    which the normalizer writes the normal form N and a conjugator c.  One
    element check proves N conjugate to u: c u c^-1 and N, or exchange(mirror(N))
    when N is mirrored, have one exponent sum and one SL2(Z) image.  That pair
    is a complete invariant of B3 elements, since the kernel of B3 -> SL2(Z)
    is <h^2> and h^2 has exponent sum 12.  N's one graph serves the report,
    cycle form, presentation and certificate."""
    normalize = normalize_type1_d1 if cls.d == 1 else normalize_type1_dm1
    try:
        u = replay_moves(w, cls.moves)
        out = normalize(u, cls)
    except NormalizationError as e:
        raise SoundnessError("normalization failed: %s" % e)
    report["normalization"] = out.to_json()
    c = out.conjugator.letters
    moved = BraidWord(c + u.letters + tuple((g, -s) for g, s in reversed(c)), u.fulltwist)
    target = mirror(mirror(out.word), exchange=True) if out.mirrored else out.word
    if (exponent_sum(moved), sl2_matrix(moved)) != (exponent_sum(target), sl2_matrix(target)):
        raise SoundnessError("the conjugator does not take the unit form to %s"
                             % ("exchange(mirror(N))" if out.mirrored else "the normal form N"))
    g, _, inv = _diagram_block(report, w, out.word)
    if out.kind == "torus":
        return _torsion_route(report, [out.q], inv)
    if out.kind == "connected_sum":
        return _torsion_route(report, [out.q1, out.q2], inv)
    dec = DecoratedCycleGraph(out.m, out.a, out.b)
    if to_decorated(g) != dec:
        raise SoundnessError("normalized word does not rebuild the cycle graph")
    report["decorated"] = dec.to_json()
    # the certificate is checked against the diagram the verdict is about
    g = cycle_names(g, dec.m)
    pres = cycle_presentation(g)
    report["cycle_presentation"] = pres.to_json()
    try:
        cert = certify_cycle_non_lo(dec, g)
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


def _torsion_route(report, factors, inv):
    det, expected = report["determinant"], prod(abs(q) for q in factors)
    if expected != det:
        raise SoundnessError("branch set %s has determinant %d, diagram says %d"
                             % (factors, expected, det))
    verdicts = []
    if len(factors) == 1:
        verdicts.append(torsion_non_lo(inv))
    else:
        # connected sum of two-bridge branch sets: each factor contributes a
        # finite cyclic free factor, so torsion in any factor obstructs
        for q in factors:
            verdicts.append(torsion_non_lo(
                AbelianInvariants((abs(q),) if abs(q) > 1 else (), 0)))
    report["torsion_verdicts"] = [v.to_json() for v in verdicts]
    if all(v.kind == VERDICT_TORSION for v in verdicts):
        names = "#".join("T(2,%d)" % q for q in factors)
        just = ("branch set %s has a finite cyclic (or connected sum of "
                "finite cyclic) cover group" % names)
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
    if "presented" in report:
        p = report["presented"]
        print("presented: %s%s" % (p["word"], " (s1 <-> s2 exchanged)" if p["exchange"] else ""))
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
    if "soundness_error" in report:
        print("soundness error: %s" % report["soundness_error"])


def cmd_pipeline(args):
    try:
        report, code = run_pipeline(args.braid, max_cosets=args.max_cosets,
                                    canonical=args.canonical)
    except PipelineFailure as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    if args.dot:
        graph = report.get("graph")
        try:
            if graph is None:       # unclassified words get no diagram block
                w = expand_fulltwist(parse_braid(args.braid))
                graph = closure_white_graph(w).to_json()
            with open(args.dot, "w") as f:
                f.write(graph_dot(graph))
        except (BraidError, DegenerateDiagram, OSError) as e:
            print("dot export failed: %s" % e, file=sys.stderr)
            return EXIT_INPUT
        except DiagramError as e:       # a soundness check of the drawing failed
            print("dot export failed: soundness error: %s" % e, file=sys.stderr)
            return EXIT_SOUNDNESS
    _print_report(report, args.json)
    return code


def _parse_grid_line(line):
    if line.startswith("("):
        body = line.strip("() \t")
        mpart, apart, bpart = [p.strip() for p in body.split(";")]
        # an empty list is (), but an empty field in a list is an error
        a, b = (tuple(map(int, p.split(","))) if p else () for p in (apart, bpart))
        return ("params", int(mpart), a, b)
    return ("braid", line)


def _batch_one(line, max_cosets):
    """One grid line -> (result entry, counter key).  Exception free: an
    exception no stage handles is that line's soundness failure, named by
    its type and the function that raised it."""
    try:
        return _batch_entry(line, max_cosets)
    except Exception as e:
        return {"input": line, "error": _internal_error(e)}, "soundness_failure"


def _batch_entry(line, max_cosets):
    try:
        item = _parse_grid_line(line)
    except (ValueError, IndexError):
        return {"input": line, "error": "unparseable grid line"}, "input_error"
    if item[0] == "braid":
        try:
            report, code = run_pipeline(item[1], max_cosets=max_cosets,
                                        canonical=True)
        except PipelineFailure as e:
            return {"input": line, "error": str(e)}, (
                "input_error" if e.code == EXIT_INPUT else "soundness_failure")
        if code == EXIT_OK:
            return report, "ok"
        if code == EXIT_SOUNDNESS:
            return report, "soundness_failure"
        return report, "inconclusive"
    _, m, a, b = item
    try:
        dec = DecoratedCycleGraph(m, a, b)
    except DiagramError as e:
        return {"input": line, "error": str(e)}, "input_error"
    # the cycle word s2^m s1^a0 s2^-b1 ... s1^an is bounded as a braid line's is
    size = m + sum(a) + sum(b)
    if size > MAX_LETTERS:
        return {"input": line, "error": "cycle word has %d letters, more than "
                "MAX_LETTERS = %d" % (size, MAX_LETTERS)}, "input_error"
    entry = {"input": line, "params": {"m": m, "a": list(a), "b": list(b)}}
    try:
        g = cycle_graph_from_params(m, a, b)
        cert = certify_cycle_non_lo(dec, g)
        ok, problems = verify_certificate(cert.to_json(), cycle_presentation(g))
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
    results merged back in input order.  Each worker takes the lines in
    chunks of about a quarter of its share, since a line is often cheaper
    than sending it to a worker and back."""
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
                                     tasks,
                                     chunksize=max(1, len(tasks) // (4 * workers))))
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
    import argparse     # here, not at the top: only the command line needs it

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
    p.add_argument("--dot", metavar="FILE",
                   help="write the report's white graph as DOT: the input's, "
                        "the presented word's or the normal form's")
    p.add_argument("--max-cosets", type=int, default=10 ** 6)
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
