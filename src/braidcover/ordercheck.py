"""Non-left-orderability evidence: certificates, coset enumeration, torsion.

Three routes: the sign-deduction certificate for cycle-form presentations,
HLT coset enumeration to witness finite groups, and torsion of a known
cyclic (or lens-space connected-sum) cover.  An index-2 subgroup with
infinite abelianization proves a group infinite before enumeration is
tried.  A bounded positive-cone search is included as a generic
brute-force obstruction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .rewrite import (FreeWord, format_word, parse_word, x_sym, right_words,
                      verify_lemma_x, verify_lemma_right, verify_product_relation,
                      QR)
from .diagram import DecoratedCycleGraph, cycle_graph_from_params
from .presentation import (cycle_presentation, relator_sets_equal,
                           smith_normal_form)

VERDICT_CERTIFIED = "NonLO_Certified"
VERDICT_FINITE = "NonLO_FiniteGroup"
VERDICT_TORSION = "NonLO_Torsion"
VERDICT_ALTERNATING = "NonLO_Alternating"
VERDICT_INCONCLUSIVE = "Inconclusive"


class HypothesisNotMet(Exception):
    pass


class SoundnessError(Exception):
    pass


@dataclass
class Verdict:
    kind: str
    justification: str
    machine_checked: bool = True

    def to_json(self):
        return {"verdict": self.kind, "justification": self.justification,
                "machine_checked": self.machine_checked}


# ---------------------------------------------------------------------------
# Coset enumeration (HLT with coincidence handling).
# ---------------------------------------------------------------------------

class Exhausted(Exception):
    """Coset cap hit; inconclusive, never an answer."""


@dataclass
class CosetTable:
    generators: tuple
    complete: bool
    order: int
    table: tuple          # live rows, standardized numbering
    cosets_defined: int

    def trace(self, start, word):
        col = {g: 2 * i for i, g in enumerate(self.generators)}
        cur = start
        for sym, s in word.letters:
            cur = self.table[cur][col[sym] + (0 if s == 1 else 1)]
        return cur

    def is_trivial(self, word):
        """Word problem oracle; valid because the table is the regular action."""
        if not self.complete:
            raise SoundnessError("incomplete table cannot decide the word problem")
        return self.trace(0, word) == 0


def todd_coxeter(p, max_cosets=10 ** 6):
    """Enumerate cosets of the trivial subgroup; deterministic HLT strategy.

    Returns a complete CosetTable or raises Exhausted at the coset cap.
    """
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

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in relators:
            if not w:
                continue
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for x in range(ncols):
                if table[alpha][x] is None:
                    define(alpha, x)
        alpha += 1

    live = [i for i in range(len(table)) if rep(i) == i]
    # compress to live cosets, then standardize by scan order
    index = {c: i for i, c in enumerate(live)}
    rows = [[index[rep(table[c][x])] for x in range(ncols)] for c in live]
    rows = _standardize(rows, ncols)
    return CosetTable(gens, True, len(live), tuple(tuple(r) for r in rows),
                      len(table))


def _standardize(rows, ncols):
    """Renumber cosets in order of first appearance row by row."""
    order = {0: 0}
    new_to_old = [0]
    i = 0
    while i < len(new_to_old):
        old = new_to_old[i]
        for x in range(ncols):
            t = rows[old][x]
            if t not in order:
                order[t] = len(order)
                new_to_old.append(t)
        i += 1
    assert len(new_to_old) == len(rows)
    return [[order[t] for t in rows[old]] for old in new_to_old]


# ---------------------------------------------------------------------------
# Infinitude from an index-2 subgroup (Reidemeister-Schreier).
# ---------------------------------------------------------------------------

# dim H1(G; F2) above which infinite_witness gives up: it tries all
# 2^dim - 1 maps onto Z/2
WITNESS_MAX_DIM = 8


def infinite_witness(p):
    """A map onto Z/2 whose kernel has infinite abelianization, or None.

    That kernel has index 2, so the group is infinite and coset
    enumeration of it cannot close.  The maps are the nonzero solutions
    of the exponent-sum matrix mod 2, all of them tried (the infinite
    dihedral group has one good map among three).  Returns {generator:
    0 or 1} for the first kernel of positive free rank.  None when no
    kernel has one or H1(G; F2) has dimension above WITNESS_MAX_DIM; a
    finite group always gets None.
    """
    gens = p.generators
    col = {g: i for i, g in enumerate(gens)}
    rows = []
    for r in p.relators:
        row = 0
        for sym, _ in r.letters:
            row ^= 1 << col[sym]
        rows.append(row)
    basis = _f2_solutions(rows, len(gens))
    if len(basis) > WITNESS_MAX_DIM:
        return None
    for pick in range(1, 1 << len(basis)):
        bits = 0
        for i, v in enumerate(basis):
            if pick >> i & 1:
                bits ^= v
        eps = {g: bits >> i & 1 for i, g in enumerate(gens)}
        relations, ncols = _index2_kernel_relations(p, eps)
        if len(smith_normal_form(relations, ncols)) < ncols:
            return eps
    return None


def _f2_solutions(rows, n):
    """Basis of {x in F2^n : r.x = 0 for each row}; vectors as bitmasks."""
    pivots = {}                 # pivot column -> row, in reduced echelon form
    for r in rows:
        for c, pr in pivots.items():
            if r >> c & 1:
                r ^= pr
        if not r:
            continue
        c = (r & -r).bit_length() - 1
        for c2, pr in pivots.items():
            if pr >> c & 1:
                pivots[c2] = pr ^ r
        pivots[c] = r
    basis = []
    for f in range(n):
        if f not in pivots:
            x = 1 << f
            for c, pr in pivots.items():
                if pr >> f & 1:
                    x |= 1 << c
            basis.append(x)
    return basis


def _index2_kernel_relations(p, eps):
    """Abelianized Reidemeister-Schreier presentation of the kernel of
    eps: G -> Z/2, as (relation rows, number of generators).

    Cosets 0 and 1 have representatives 1 and t, the first generator eps
    sends to 1.  Column (g, c) stands for rep(c) g rep(c + eps(g))^-1;
    (t, 0) is 1 and has no column.  Each relator is rewritten from both
    cosets; a row holds the exponent sums of its rewrite.
    """
    t = next(g for g in p.generators if eps[g])
    col = {}
    for g in p.generators:
        for c in (0, 1):
            if (g, c) != (t, 0):
                col[g, c] = len(col)
    rows = []
    for r in p.relators:
        for start in (0, 1):
            c = start
            row = [0] * len(col)
            for sym, sign in r.letters:
                if sign == -1:
                    c ^= eps[sym]
                if (sym, c) in col:
                    row[col[sym, c]] += sign
                if sign == 1:
                    c ^= eps[sym]
            rows.append(row)
    return rows, len(col)


# ---------------------------------------------------------------------------
# Torsion and positive-cone obstructions.
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


@dataclass
class PositiveConeWitness:
    generators: tuple
    derivations: dict    # sign assignment -> word reaching the identity

    def to_json(self):
        return {"generators": list(self.generators),
                "derivations": {"".join("+" if s > 0 else "-" for s in key):
                                format_word(w, fold=False)
                                for key, w in self.derivations.items()}}


def positive_cone_search(p, oracle, depth=8):
    """Breadth-first closure of each signed generator semigroup.

    Returns a PositiveConeWitness when every sign assignment produces a
    nonempty product equal to the identity within `depth`; None otherwise
    (inconclusive).  `oracle` decides triviality of words.
    """
    gens = tuple(p.generators)
    derivations = {}
    for signs in itertools.product((1, -1), repeat=len(gens)):
        found = None
        frontier = [FreeWord.gen(g, s) for g, s in zip(gens, signs)]
        seen = set(frontier)
        for w in frontier:
            if oracle(w):
                found = w
                break
        length = 1
        while found is None and length < depth:
            nxt = []
            for w in frontier:
                for g, s in zip(gens, signs):
                    w2 = w * FreeWord.gen(g, s)
                    if w2 in seen:
                        continue
                    seen.add(w2)
                    if oracle(w2):
                        found = w2
                        break
                    nxt.append(w2)
                if found is not None:
                    break
            frontier = nxt
            length += 1
        if found is None:
            return None
        derivations[signs] = found
    return PositiveConeWitness(gens, derivations)


# ---------------------------------------------------------------------------
# The cycle-form certificate.
# ---------------------------------------------------------------------------

@dataclass
class SignStep:
    element: FreeWord
    sign: int
    rule: str
    premises: tuple = ()
    payload: dict = field(default_factory=dict)

    def to_json(self):
        out = {"element": format_word(self.element, fold=False),
               "sign": "+" if self.sign > 0 else "-",
               "rule": self.rule, "premises": list(self.premises)}
        if self.payload:
            out["payload"] = self.payload
        return out


@dataclass
class NonLOCertificate:
    m: int
    a: tuple
    b: tuple
    case: int
    wlog: dict
    steps: list
    contradiction: tuple

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
            signs.add(g.edges[i][2])
        if signs == {1, -1}:
            out.add(v)
    return out


def _wlog_record(d):
    """The extremal-candidate predicate: only y0 and y_cn see mixed signs."""
    g = cycle_graph_from_params(d.m, d.a, d.b)
    mixed = _mixed_sign_vertices(g)
    want = {"y0", "y%d" % d.cn}
    return {"mixed_sign_vertices": sorted(mixed),
            "expected": sorted(want),
            "ok": mixed == want,
            "branch": "y0 < 1 < y%d (the opposite order reduces to this one "
                      "by order reversal)" % d.cn}


def certify_cycle_non_lo(d):
    """Build the non-left-orderability certificate for a cycle-form graph.

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
    wlog = _wlog_record(d)
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
    # lemma right writes y0 as a positive word in y_cn and r_right
    w0 = right_words(a, b)[0][0]
    ycn_text, r_text = format_word(ycn, fold=False), format_word(r_right, fold=False)
    factors = [r_text if sym == QR else ycn_text for sym, _ in w0.letters]
    steps.append(SignStep(y0, +1, "product_of_positives", (1, 5),
                          {"factors": factors, "via": "lemma_right",
                           "marker_word": format_word(w0, fold=False)}))
    return NonLOCertificate(m, a, b, case, wlog, steps, (0, len(steps) - 1))


def verify_certificate(cert_json, pres):
    """Recheck a certificate against a presentation, from the JSON alone.

    Re-derives every lemma fact from the parameters once, re-checks every
    sign inference, and confirms the contradiction.  Returns (ok, problems).
    """
    problems = []
    try:
        params = cert_json["params"]
        d = DecoratedCycleGraph(params["m"], tuple(params["a"]), tuple(params["b"]))
    except Exception as e:
        return False, ["bad parameters: %s" % e]
    if d.n < 1:     # no y segments: no cycle presentation and no lemma
        return False, ["hypothesis fails for the stated parameters: n = 0"]
    if not relator_sets_equal(pres, cycle_presentation(d)):
        problems.append("presentation does not match the certificate parameters")
    if not d.hypothesis_ok():
        problems.append("hypothesis fails for the stated parameters")
    try:
        lemmas = {
            "product": verify_product_relation(d).results,
            "right_words": verify_lemma_right(d)[1],
            "lemma_x": verify_lemma_x(d.m, d.cn) if d.m > 1 else None,
            "wlog": _wlog_record(d),
        }
    except Exception as e:
        return False, ["lemma replay failed: %s" % e]

    try:
        steps = []
        for js in cert_json["steps"]:
            steps.append((parse_word(js["element"]), 1 if js["sign"] == "+" else -1,
                          js["rule"], tuple(js["premises"]), js.get("payload", {})))
    except Exception as e:
        return False, ["malformed steps: %s" % e]

    for idx, step in enumerate(steps):
        if any(p >= idx or p < 0 for p in step[3]):
            problems.append("step %d cites an out-of-range step" % idx)
            continue
        try:
            _check_step(problems, d, cert_json, steps, idx, lemmas)
        except Exception as e:
            problems.append("step %d: malformed (%s)" % (idx, e))

    try:
        i, j = cert_json["contradiction"]
        if not (steps[i][0] == steps[j][0] and steps[i][1] == -steps[j][1]):
            problems.append("no contradiction between steps %d and %d" % (i, j))
    except Exception as e:
        problems.append("malformed contradiction: %s" % e)
    return not problems, problems


def _check_step(problems, d, cert_json, steps, idx, lemmas):
    element, sign, rule, premises, payload = steps[idx]
    m, a, cn = d.m, d.a, d.cn
    y0 = FreeWord.gen("y0")
    ycn = FreeWord.gen("y%d" % cn)
    x1 = FreeWord.gen(x_sym(1, m, cn))
    xm1 = FreeWord.gen(x_sym(m - 1, m, cn))
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
        # w0 ... wn = 1 with every w_k positive over {y0, qL} and y0
        # strictly negative somewhere, so qL must be positive
        if element != x1 * y0 ** (a[0] - 1):
            problems.append("step %d: element is not x1 y0^(a0-1)" % idx)
        if not any(s[0] == y0 and s[1] == -1 for s in steps[:idx]):
            problems.append("step %d: needs y0 negative" % idx)
        for k, wk in enumerate(lemmas["product"]["words"]):
            if not wk.is_positive():
                problems.append("left word %d not positive" % k)
        if lemmas["product"]["product"].count("y0") == 0:
            problems.append("step %d: no strict factor in the product" % idx)
        if sign != 1:
            problems.append("step %d: wrong sign" % idx)
    elif rule == "product_of_positives":
        texts = payload.get("factors", [])
        parsed = {t: parse_word(t) for t in set(texts)}
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
            w0 = lemmas["right_words"][0]
            r_right = ycn ** (a[-1] - 1) * xm1
            expected = [ycn if sym != QR else r_right for sym, _ in w0.letters]
            if element != y0 or not w0.is_positive() or factors != expected:
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
        prefix = parse_word(payload["prefix"])
        gword = FreeWord.gen(payload["g"])
        k = payload["k"]
        if k < 1:
            problems.append("step %d: needs exponent >= 1" % idx)
        i, j = premises
        if steps[i][0] != prefix * gword ** k or steps[i][1] != 1:
            problems.append("step %d: dominating element missing" % idx)
        if steps[j][0] != gword or steps[j][1] != -1:
            problems.append("step %d: negative base missing" % idx)
        if element != prefix * gword or sign != 1:
            problems.append("step %d: wrong conclusion" % idx)
    else:
        problems.append("step %d: unknown rule %r" % (idx, rule))
