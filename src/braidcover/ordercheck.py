"""Non-left-orderability evidence: certificates, coset enumeration, torsion.

Three routes: the sign-deduction certificate for cycle-form presentations,
HLT coset enumeration to witness finite groups, and torsion of a known
cyclic (or lens-space connected-sum) cover.  A certificate is rechecked
against the cycle presentation of its parameters' graph, whose relators
the lemmas are re-derived from.  The finite route enumerates
the cosets of a cyclic subgroup H and reads |H| off the abelianized
Reidemeister-Schreier presentation of H over the closed table, so |G| =
[G:H] |H|.  The same subgroup abelianization proves a group infinite,
from H after enumeration or, before it, from the kernel of a map onto
Z/2, found by trying every assignment of the at most 7 generators the
finite route presents.
"""

from __future__ import annotations

from .rewrite import (FreeWord, RewriteError, format_word, parse_word, x_sym,
                      right_rules, verify_lemma_x, verify_lemma_y,
                      verify_lemma_right, verify_product_relation)
from .diagram import DecoratedCycleGraph, cycle_graph_from_params
from .presentation import (AbelianInvariants, cycle_presentation,
                           relator_sets_equal, smith_normal_form)

VERDICT_CERTIFIED = "NonLO_Certified"
VERDICT_FINITE = "NonLO_FiniteGroup"
VERDICT_TORSION = "NonLO_Torsion"
VERDICT_ALTERNATING = "NonLO_Alternating"
VERDICT_INCONCLUSIVE = "Inconclusive"


class HypothesisNotMet(Exception):
    pass


class SoundnessError(Exception):
    pass


class Verdict:
    def __init__(self, kind, justification, machine_checked=True):
        self.kind, self.justification = kind, justification
        self.machine_checked = machine_checked

    def to_json(self):
        return {"verdict": self.kind, "justification": self.justification,
                "machine_checked": self.machine_checked}


# ---------------------------------------------------------------------------
# Coset enumeration (HLT with coincidence handling).
# ---------------------------------------------------------------------------

class Exhausted(Exception):
    """Coset cap hit; inconclusive, never an answer."""


class InfiniteGroup(Exception):
    """The enumerated subgroup has infinite abelianization; G is infinite."""


class CosetTable:
    def __init__(self, generators, order, table, cosets_defined, index):
        self.generators = generators
        self.order = order                  # |G| = index * |H|
        self.table = table                  # live rows, H at coset 0
        self.cosets_defined = cosets_defined
        self.index = index                  # [G:H], the number of rows


def todd_coxeter(p, max_cosets=10 ** 6, subgroup=()):
    """Enumerate the cosets of the subgroup H generated by the words in
    `subgroup` (default trivial); deterministic HLT strategy.

    The subgroup words are scanned at coset 0 before the main loop.  For a
    nonempty subgroup |H| is read from the abelianized Reidemeister-Schreier
    presentation of H over the closed table; H has one generating word, so
    it is cyclic, equals its abelianization, and the order is [G:H] |H|;
    more than one word is refused.  Returns a complete CosetTable; raises
    Exhausted at the coset cap, and InfiniteGroup when H has positive free
    rank.
    """
    if len(subgroup) > 1:
        raise ValueError("the order is read off cyclic subgroups only")
    gens = tuple(p.generators)
    ncols = 2 * len(gens)
    col = {g: 2 * i for i, g in enumerate(gens)}

    def encode(w):
        return tuple(col[sym] + (0 if s == 1 else 1) for sym, s in w.letters)

    relators = [encode(r) for r in p.relators if r]
    table = [[None] * ncols]
    parent = [0]

    def rep(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def define(alpha, x):
        if len(table) >= max_cosets:
            raise Exhausted("coset cap %d reached" % max_cosets)
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha
        return beta

    def merge(k, lam, queue):
        k, lam = rep(k), rep(lam)
        if k != lam:
            mu, nu = min(k, lam), max(k, lam)
            parent[nu] = mu
            queue.append(nu)

    def coincidence(alpha, beta):
        queue = []
        merge(alpha, beta, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for x in range(ncols):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    for w in subgroup:
        if w:
            scan_and_fill(0, encode(w))
    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for x in range(ncols):
                if table[alpha][x] is None:
                    define(alpha, x)
        alpha += 1

    live = [i for i in range(len(table)) if rep(i) == i]
    # compress to live cosets; H stays coset 0
    index = {c: i for i, c in enumerate(live)}
    rows = [[index[rep(table[c][x])] for x in range(ncols)] for c in live]
    order = len(rows)
    if any(subgroup):
        h = subgroup_abelianization(p, rows)
        if h.rank:
            raise InfiniteGroup(
                "the subgroup generated by %s has index %d and infinite "
                "abelianization, so the group is infinite"
                % (", ".join(format_word(w) for w in subgroup), order))
        order *= h.order()
    return CosetTable(gens, order, tuple(tuple(r) for r in rows),
                      len(table), len(rows))


def cyclic_subgroup(p):
    """Words generating the cyclic subgroup the finite route enumerates.

    The generator with the largest |exponent| of a syllable in any relator,
    ties going to the least name: on a family (2) presentation, the one
    whose power grows with m (index 2 on every family (2) workload line).
    Empty (the trivial subgroup) when there are no generators.
    """
    top = dict.fromkeys(p.generators, 0)
    for r in p.relators:
        for sym, e in r.pairs():
            top[sym] = max(top[sym], abs(e))
    if not top:
        return ()
    return (FreeWord.gen(min(top, key=lambda g: (-top[g], g))),)


# ---------------------------------------------------------------------------
# Subgroup abelianization (Reidemeister-Schreier) and the index-2 test.
# ---------------------------------------------------------------------------

def subgroup_abelianization(p, rows):
    """Abelian invariants of the subgroup H of G whose cosets `rows` lists.

    rows[c][2i] and rows[c][2i + 1] are the cosets of c times generator i
    and its inverse, with H the coset 0.  A breadth-first spanning tree of
    the coset graph picks the representatives rep(c); the Schreier
    generator (c, g) = rep(c) g rep(c g)^-1 is trivial on the tree and
    otherwise has a column.  Each relator rewritten from each coset gives
    a relation row of exponent sums (Reidemeister-Schreier), and the Smith
    form of those rows gives H^ab.

    Relators are rewritten a syllable at a time.  From coset c, g^e walks
    the cycle of g's permutation through c: letter t of g^e reads the
    Schreier generator at the coset t steps along it (one step back first,
    for a negative e), so with the cycle's length L, the first e mod L
    cosets are read floor(|e| / L) + 1 times and the others floor(|e| / L)
    times, and g^e ends at the coset e steps along.  A syllable costs at
    most L steps, however large e is.
    """
    ngens = len(p.generators)
    seen = {0}
    tree = set()
    queue = [0]
    for c in queue:
        for x in range(2 * ngens):
            e = rows[c][x]
            if e not in seen:
                seen.add(e)
                queue.append(e)
                tree.add((c, x >> 1) if x & 1 == 0 else (e, x >> 1))
    col = {}
    for c in range(len(rows)):
        for i in range(ngens):
            if (c, i) not in tree:
                col[c, i] = len(col)
    place = []          # place[i][c] = (cycle of generator i through c, c's position)
    for i in range(ngens):
        at = [None] * len(rows)
        for c in range(len(rows)):
            if at[c] is None:
                cycle = [c]
                while (x := rows[cycle[-1]][2 * i]) != c:
                    if len(cycle) == len(rows):
                        raise ValueError("column %d of the table is no permutation" % (2 * i))
                    cycle.append(x)
                for pos, x in enumerate(cycle):
                    at[x] = (cycle, pos)
        place.append(at)
    gen = {g: i for i, g in enumerate(p.generators)}
    relations = []
    for r in p.relators:
        syllables = [(gen[sym], e) for sym, e in r.pairs()]
        for start in range(len(rows)):
            c = start
            row = {}
            for i, e in syllables:
                cycle, pos = place[i][c]
                size = len(cycle)
                laps, extra = divmod(abs(e), size)
                step, first = (1, pos) if e > 0 else (-1, pos - 1)
                for t in range(min(abs(e), size)):
                    k = col.get((cycle[(first + step * t) % size], i))
                    if k is not None:
                        row[k] = row.get(k, 0) + step * (laps + (t < extra))
                c = cycle[(pos + e) % size]
            relations.append({k: v for k, v in row.items() if v})
    diag = smith_normal_form(relations)
    return AbelianInvariants(tuple(d for d in diag if d > 1), len(col) - len(diag))


# generators above which infinite_witness gives up: it tries all 2^n - 1
# maps onto Z/2, and every finite-route presentation has at most 7
WITNESS_MAX_GENERATORS = 8


def infinite_witness(p):
    """A map onto Z/2 whose kernel has infinite abelianization, or None.

    That kernel has index 2, so the group is infinite and coset
    enumeration of it cannot close.  Every nonzero assignment of the
    generators to Z/2 is tried (the infinite dihedral group has one good
    map among three), skipping those under which some relator has odd
    exponent sum, which are no maps of the group; each kernel is
    abelianized from its two-coset table.  Returns {generator: 0 or 1}
    for the first kernel of positive free rank.  None when no kernel has
    one or there are more than WITNESS_MAX_GENERATORS generators; a
    finite group always gets None.
    """
    gens = p.generators
    if len(gens) > WITNESS_MAX_GENERATORS:
        return None
    relators = [r.pairs() for r in p.relators]
    for bits in range(1, 1 << len(gens)):
        eps = {g: bits >> i & 1 for i, g in enumerate(gens)}
        if any(sum(e for sym, e in r if eps[sym]) & 1 for r in relators):
            continue
        table = [[c ^ eps[g] for g in gens for _ in (0, 1)] for c in (0, 1)]
        if subgroup_abelianization(p, table).rank:
            return eps
    return None


# ---------------------------------------------------------------------------
# The torsion obstruction.
# ---------------------------------------------------------------------------

def torsion_non_lo(inv):
    """Torsion verdict for covers known to be lens spaces (cyclic groups)."""
    if inv.rank:
        return Verdict(VERDICT_INCONCLUSIVE, "infinite first homology",
                       machine_checked=False)
    order = inv.order()
    if order == 1:
        return Verdict(VERDICT_TORSION,
                       "trivial fundamental group, not left-orderable by convention")
    return Verdict(VERDICT_TORSION,
                   "nontrivial finite cyclic fundamental group Z/%d" % order)


# ---------------------------------------------------------------------------
# The cycle-form certificate.
# ---------------------------------------------------------------------------

class SignStep:
    def __init__(self, element, sign, rule, premises=(), payload=None):
        self.element, self.sign, self.rule = element, sign, rule
        self.premises, self.payload = premises, payload

    def to_json(self):
        out = {"element": format_word(self.element, fold=False),
               "sign": "+" if self.sign > 0 else "-",
               "rule": self.rule, "premises": list(self.premises)}
        if self.payload:
            out["payload"] = self.payload
        return out


class NonLOCertificate:
    def __init__(self, m, a, b, case, wlog, steps, contradiction):
        self.m, self.a, self.b, self.case = m, a, b, case
        self.wlog, self.steps, self.contradiction = wlog, steps, contradiction

    def to_json(self):
        return {"params": {"m": self.m, "a": list(self.a), "b": list(self.b)},
                "case": self.case,
                "hypothesis": self.wlog,
                "steps": [s.to_json() for s in self.steps],
                "contradiction": list(self.contradiction)}


def _mixed_sign_vertices(g):
    out = set()
    for v in g.vertices:
        signs = set()
        for i, end in g.rotations[v]:
            signs.add(g.edges[i][2] > 0)
        if signs == {True, False}:
            out.add(v)
    return out


def _wlog_record(d, g):
    """The extremal-candidate predicate on d's cycle graph g: only y0 and
    y_cn see mixed signs."""
    mixed = _mixed_sign_vertices(g)
    want = {"y0", "y%d" % d.cn}
    return {"mixed_sign_vertices": sorted(mixed),
            "expected": sorted(want),
            "ok": mixed == want,
            "branch": "y0 < 1 < y%d (the opposite order reduces to this one "
                      "by order reversal)" % d.cn}


def certify_cycle_non_lo(d, g):
    """Build the non-left-orderability certificate for the cycle form d,
    whose cycle graph (regions named as diagram.cycle_names names them)
    is g.

    Requires n >= 1 and the hypothesis (m > 1, or m = 1 with a0, an > 1).
    The result is unverified: `verify_certificate` is the one check that
    discharges its word identities and sign inferences, and a certificate
    is trusted only after it has passed that check.
    """
    if d.n < 1:
        raise HypothesisNotMet("degenerate cycle (n = 0)")
    if not d.hypothesis_ok():
        raise HypothesisNotMet("need m > 1, or m = 1 with a0 > 1 and an > 1")
    m, a, b = d.m, d.a, d.b
    cn = d.cn
    wlog = _wlog_record(d, g)
    if not wlog["ok"]:
        raise SoundnessError("extremal-candidate predicate failed")
    y0 = FreeWord.gen("y0")
    ycn = FreeWord.gen("y%d" % cn)
    x1 = FreeWord.gen(x_sym(1, m, cn))
    q_left = x1 * y0 ** (a[0] - 1)
    r_right = ycn ** (a[-1] - 1) * FreeWord.gen(x_sym(m - 1, m, cn))

    steps = [
        SignStep(y0, -1, "wlog"),
        SignStep(ycn, +1, "wlog"),
        SignStep(y0.inverse(), +1, "sign_inverse", (0,)),
        # the left-lemma product forces x1 y0^(a0-1) to be positive
        SignStep(q_left, +1, "product_forces_positive", (0,),
                 {"via": "lemma_left", "strict": "y0"}),
    ]
    if m > 1:
        case = 1
        factors = [format_word(q_left, fold=False)] + \
                  [format_word(y0.inverse(), fold=False)] * (a[0] - 1)
        steps.append(SignStep(x1, +1, "product_of_positives", (3, 2),
                              {"factors": factors}))
        factors = [format_word(ycn, fold=False)] * (a[-1] - 1)
        for _ in range(m - 2):
            factors.append(format_word(x1, fold=False))
            factors.append(format_word(y0.inverse(), fold=False))
        factors.append(format_word(x1, fold=False))
        steps.append(SignStep(r_right, +1, "product_of_positives", (1, 4, 2),
                              {"factors": factors, "via": "lemma_x"}))
    else:
        case = 2
        # x1 is an alias of y_cn here, which is positive by assumption;
        # x1 y0 dominates x1 y0^(a0-1) because y0 is negative
        steps.append(SignStep((x1 * y0), +1, "reduce_negative_power", (3, 0),
                              {"prefix": format_word(x1, fold=False),
                               "g": "y0", "k": a[0] - 1}))
        factors = [format_word(ycn, fold=False)] * (a[-1] - 2) + \
                  [format_word(x1 * y0, fold=False)]
        steps.append(SignStep(r_right, +1, "product_of_positives", (1, 4),
                              {"factors": factors}))
    # lemma right writes y0 as W0, a positive word in y_cn and r_right
    # given by straight-line rules
    factors = [format_word(ycn, fold=False), format_word(r_right, fold=False)]
    rules = [[name, format_word(body, fold=False)] for name, body in right_rules(a, b)]
    steps.append(SignStep(y0, +1, "product_of_positives", (1, 5),
                          {"factors": factors, "via": "lemma_right", "rules": rules}))
    return NonLOCertificate(m, a, b, case, wlog, steps, (0, len(steps) - 1))


def arc_relators(d, own):
    """{region: relator} for the lemmas of the cycle form d, whose cycle
    presentation is own: own's relators keyed by their generators, the
    root relator under "z".  For m = 1 they are read from the graph of
    (2, a, b) instead, whose path-end neighbour x1 stays formal (see the
    comment above rewrite.LEFT_X)."""
    if d.m == 1:
        own = cycle_presentation(cycle_graph_from_params(2, d.a, d.b))
    return dict(zip(own.generators + ("z",), own.relators))


def verify_certificate(cert_json, pres):
    """Recheck a certificate against a presentation, from the JSON alone.

    Builds the cycle graph of the parameters once: pres must have its
    relators, and the extremal-candidate predicate and every lemma fact
    are re-derived from it.  Checks the lemma-right rules the certificate
    carries against the arc relators, re-checks every sign inference, and
    confirms the contradiction.  Parameters too large for the presentation
    are refused before anything is built from them, and every word it
    reads has its exponents bounded by the largest of m, a_i and b_i
    before any letters are built.  Returns (ok, problems); malformed input
    is a problem, never an exception.
    """
    problems = []
    try:
        params = cert_json["params"]
        d = DecoratedCycleGraph(params["m"], tuple(params["a"]), tuple(params["b"]))
    except Exception as e:
        return False, ["bad parameters: %s" % e]
    if d.n < 1:     # no y segments: no cycle presentation and no lemma
        return False, ["hypothesis fails for the stated parameters: n = 0"]
    # the parameters' presentation has m + cn generators (the root is
    # killed) and a root relator of sum(a) letters; refuse what pres cannot
    # hold before building anything from parameters of unchecked size
    if d.m + d.cn > len(pres.generators) or \
            sum(d.a) > max(map(len, pres.relators), default=0):
        return False, ["presentation does not match the certificate parameters"]
    g = cycle_graph_from_params(d.m, d.a, d.b)
    own = cycle_presentation(g)
    if not relator_sets_equal(pres, own):
        problems.append("presentation does not match the certificate parameters")
    if not d.hypothesis_ok():
        problems.append("hypothesis fails for the stated parameters")
    try:
        rel = arc_relators(d, own)
        segments = verify_lemma_y(rel, d.b)
        verify_product_relation(d, rel, segments)
        lemmas = {
            "rel": rel,
            "segments": segments,
            "lemma_x": verify_lemma_x(rel, d.m, d.cn) if d.m > 1 else None,
            "wlog": _wlog_record(d, g),
        }
    except Exception as e:
        return False, ["lemma replay failed: %s" % e]

    bound = max((d.m,) + d.a + d.b)
    gens = tuple(map(FreeWord.gen, ("y0", "y%d" % d.cn, x_sym(1, d.m, d.cn),
                                    x_sym(d.m - 1, d.m, d.cn))))
    try:
        steps = []
        for js in cert_json["steps"]:
            steps.append((parse_word(js["element"], bound), 1 if js["sign"] == "+" else -1,
                          js["rule"], tuple(js["premises"]), js.get("payload", {})))
    except Exception as e:
        return False, ["malformed steps: %s" % e]

    for idx, step in enumerate(steps):
        bad = [p for p in step[3] if type(p) is not int or not 0 <= p < idx]
        if bad:
            problems.append("step %d cites %r, which is not an earlier step"
                            % (idx, bad[0]))
            continue
        try:
            _check_step(problems, d, cert_json, steps, idx, lemmas, bound, gens)
        except Exception as e:
            problems.append("step %d: malformed (%s)" % (idx, e))

    try:
        i, j = cert_json["contradiction"]
        if not (steps[i][0] == steps[j][0] and steps[i][1] == -steps[j][1]):
            problems.append("no contradiction between steps %d and %d" % (i, j))
    except Exception as e:
        problems.append("malformed contradiction: %s" % e)
    return not problems, problems


def _check_step(problems, d, cert_json, steps, idx, lemmas, bound, gens):
    """Check step idx; gens is (y0, y_cn, x1, x_{m-1}) as words."""
    element, sign, rule, premises, payload = steps[idx]
    m, a, cn = d.m, d.a, d.cn
    y0, ycn, x1, xm1 = gens
    if rule == "wlog":
        if not (lemmas["wlog"]["ok"] and cert_json["hypothesis"].get("ok")):
            problems.append("wlog predicate not established")
        if not ((element == y0 and sign == -1) or (element == ycn and sign == 1)):
            problems.append("step %d: wlog only fixes y0 < 1 < y_cn" % idx)
    elif rule == "sign_inverse":
        i = premises[0]
        if steps[i][0].inverse() != element or steps[i][1] != -sign:
            problems.append("step %d: bad inversion" % idx)
    elif rule == "product_forces_positive":
        # W0^a0 ... Wn^an = 1 with every Wk positive over {y0, qL} and y0
        # in it (verify_product_relation), and y0 negative, so qL must be
        # positive
        if element != x1 * y0 ** (a[0] - 1):
            problems.append("step %d: element is not x1 y0^(a0-1)" % idx)
        if not any(s[0] == y0 and s[1] == -1 for s in steps[:idx]):
            problems.append("step %d: needs y0 negative" % idx)
        if sign != 1:
            problems.append("step %d: wrong sign" % idx)
    elif rule == "product_of_positives":
        texts = payload.get("factors", [])
        parsed = {t: parse_word(t, bound) for t in set(texts)}
        factors = [parsed[t] for t in texts]
        if not factors:
            problems.append("step %d: empty product" % idx)
        positive = {s[0] for s in steps[:idx] if s[1] == 1}
        for f in factors:
            if f not in positive:
                problems.append("step %d: factor %s not established positive"
                                % (idx, format_word(f, fold=False)))
        via = payload.get("via")
        if via == "lemma_right":
            # the rules make W0 a positive word in y_cn and qR that equals
            # y0, so y0 is a product of the two factors
            rules = [(name, parse_word(text, bound)) for name, text in payload["rules"]]
            try:
                checked, _ = verify_lemma_right(d, lemmas["rel"], rules,
                                                lemmas["segments"])
            except RewriteError as e:
                problems.append("step %d: lemma-right rules fail: %s" % (idx, e))
            else:
                if element != y0 or "W0" not in checked or \
                        factors != [ycn, ycn ** (a[-1] - 1) * xm1]:
                    problems.append("step %d: lemma-right discharge failed" % idx)
        else:
            prod = FreeWord([x for f in factors for x in f.letters])
            if via is None:
                if prod != element:
                    problems.append("step %d: factors do not multiply to the element" % idx)
            elif via == "lemma_x":
                want = ycn ** (a[-1] - 1) * lemmas["lemma_x"].results[x_sym(m - 1, m, cn)]
                if prod != want or element != ycn ** (a[-1] - 1) * xm1:
                    problems.append("step %d: lemma-x discharge failed" % idx)
            else:
                problems.append("step %d: unknown discharge %r" % (idx, via))
        if sign != 1:
            problems.append("step %d: wrong sign" % idx)
    elif rule == "reduce_negative_power":
        prefix = parse_word(payload["prefix"], bound)
        gword = FreeWord.gen(payload["g"])
        k = payload["k"]
        if not 1 <= k <= bound:
            problems.append("step %d: needs exponent in 1..%d" % (idx, bound))
            return
        i, j = premises
        if steps[i][0] != prefix * gword ** k or steps[i][1] != 1:
            problems.append("step %d: dominating element missing" % idx)
        if steps[j][0] != gword or steps[j][1] != -1:
            problems.append("step %d: negative base missing" % idx)
        if element != prefix * gword or sign != 1:
            problems.append("step %d: wrong conclusion" % idx)
    else:
        problems.append("step %d: unknown rule %r" % (idx, rule))
