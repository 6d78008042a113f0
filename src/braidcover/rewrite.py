"""Free-group word engine and replay of the cycle-presentation rewriting lemmas.

Words live in the free group on named generators and are always stored
freely reduced.  The verifiers in the second half of this module rebuild,
by explicit generator elimination, the closed forms used to order-obstruct
the cycle-form presentations: the x-path telescopes, the y-segment
telescopes (forward and backward), the two-element expressions for the
marked y-generators from either end of the cycle, and the global product
relation.  Every verifier returns a transcript of (rule, target, relator
used, resulting word) steps that can be replayed independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class RewriteError(Exception):
    pass


def _reduce(letters):
    out = []
    for sym, sign in letters:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


class FreeWord:
    """A freely reduced word; letters are (generator name, +1/-1) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce(letters)

    @staticmethod
    def gen(sym, exp=1):
        if exp >= 0:
            return FreeWord(((sym, 1),) * exp)
        return FreeWord(((sym, -1),) * (-exp))

    @staticmethod
    def from_pairs(pairs):
        """Build from run-length [(sym, exp), ...] pairs."""
        letters = []
        for sym, exp in pairs:
            sign = 1 if exp > 0 else -1
            letters.extend([(sym, sign)] * abs(exp))
        return FreeWord(letters)

    def pairs(self):
        """Run-length encode back to [(sym, exp), ...]."""
        out = []
        for sym, sign in self.letters:
            if out and out[-1][0] == sym and out[-1][1] * sign > 0:
                out[-1][1] += sign
            else:
                out.append([sym, sign])
        return [(s, e) for s, e in out]

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord(tuple((s, -sg) for s, sg in reversed(self.letters)))

    def __pow__(self, n):
        if n == 0:
            return FreeWord()
        base = self if n > 0 else self.inverse()
        return FreeWord(base.letters * abs(n))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def is_identity(self):
        return not self.letters

    def is_positive(self):
        """True when every letter has exponent +1."""
        return all(sg == 1 for _, sg in self.letters)

    def symbols(self):
        return {s for s, _ in self.letters}

    def count(self, sym):
        return sum(1 for s, _ in self.letters if s == sym)

    def exponent_sum(self, sym):
        return sum(sg for s, sg in self.letters if s == sym)

    def substitute(self, mapping):
        """Replace each generator in `mapping` by its word; others stay atomic."""
        out = []
        for sym, sign in self.letters:
            rep = mapping.get(sym)
            if rep is None:
                out.append((sym, sign))
            else:
                out.extend(rep.letters if sign == 1 else rep.inverse().letters)
        return FreeWord(out)

    def cyclic_reduce(self):
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
                and letters[0][1] == -letters[-1][1]:
            letters = letters[1:-1]
        return FreeWord(letters)

    def rotations(self):
        w = self.letters
        return [FreeWord(w[i:] + w[:i]) for i in range(max(1, len(w)))]

    def canonical_cyclic(self):
        """Least rotation over the word and its inverse; relator identity key."""
        cands = []
        for w in (self.cyclic_reduce(), self.cyclic_reduce().inverse()):
            cands.extend(r.letters for r in w.rotations())
        return min(cands)

    def __repr__(self):
        return "FreeWord(%s)" % (format_word(self),)

    def __str__(self):
        return format_word(self)


def format_word(w, fold=True):
    """Print a word, folding repeated blocks: (x1 x0^-1)^3 x1."""
    if not w.letters:
        return "1"
    pairs = w.pairs()
    if fold:
        folded = _fold_blocks(pairs)
        if folded is not None:
            return folded
    return " ".join(s if e == 1 else "%s^%d" % (s, e) for s, e in pairs)

def _fold_blocks(pairs):
    # Look for a repetition (B)^k C with B of up to 4 run-length pairs.
    for blen in (2, 3, 4):
        if len(pairs) < 2 * blen:
            continue
        block = pairs[:blen]
        k = 1
        while pairs[k * blen:(k + 1) * blen] == block:
            k += 1
        if k >= 2:
            head = " ".join(s if e == 1 else "%s^%d" % (s, e) for s, e in block)
            rest = pairs[k * blen:]
            out = "(%s)^%d" % (head, k)
            if rest:
                out += " " + format_word(FreeWord.from_pairs(rest), fold=True)
            return out
    return None


def parse_word(text):
    """Inverse of the plain printer: whitespace separated sym or sym^exp."""
    pairs = []
    for tok in text.split():
        if tok == "1":
            continue
        if "^" in tok:
            sym, _, exp = tok.partition("^")
            pairs.append((sym, int(exp)))
        else:
            pairs.append((tok, 1))
    return FreeWord.from_pairs(pairs)


def solve_relation(r, g):
    """Solve r = 1 for g, which must occur exactly once in r.

    Returns w with r = 1 equivalent to g = w, and g not occurring in w.
    """
    hits = [i for i, (s, _) in enumerate(r.letters) if s == g]
    if len(hits) != 1:
        raise RewriteError("generator %s occurs %d times, need exactly 1" % (g, len(hits)))
    i = hits[0]
    a = FreeWord(r.letters[:i])
    b = FreeWord(r.letters[i + 1:])
    if r.letters[i][1] == 1:
        # a g b = 1  =>  g = a^-1 b^-1
        w = a.inverse() * b.inverse()
    else:
        # a g^-1 b = 1  =>  g = b a
        w = b * a
    # sanity: substituting back must kill the relator
    assert r.substitute({g: w}).is_identity()
    return w


# ---------------------------------------------------------------------------
# Cycle-form relators.
#
# Generators: y0..y{cn} around the positive arc, x1..x{m-1} on the negative
# arc, z for the root.  x0 and xm are aliases of y0 and y{cn}.
# ---------------------------------------------------------------------------

def prefix_sums(b):
    """c_0 = 0 and c_k = b_1 + ... + b_k: the indices of the marked y's."""
    c = [0]
    for bk in b:
        c.append(c[-1] + bk)
    return c


def x_sym(i, m, cn):
    """Name of x_i with the y-aliases at the path ends."""
    if i <= 0:
        return "y0"
    if i >= m:
        return "y%d" % cn
    return "x%d" % i


def _path_relator(sym, i):
    """Relator of x_i on the negative path; sym(j) names x_j."""
    w = FreeWord.gen
    xi = w(sym(i))
    return (w(sym(i + 1)).inverse() * xi).inverse() \
        * (w(sym(i - 1)).inverse() * xi).inverse()


def _unmarked_relator(i):
    w = FreeWord.gen
    yi = w("y%d" % i)
    return (w("y%d" % (i + 1)).inverse() * yi) * (w("y%d" % (i - 1)).inverse() * yi)


def _marked_relator(a_k, i):
    w = FreeWord.gen
    yc = w("y%d" % i)
    return (w("y%d" % (i - 1)).inverse() * yc) * yc ** a_k \
        * (w("y%d" % (i + 1)).inverse() * yc)


def _end_relator(i, a_k, x):
    """Relator of the arc end y_i (y0 or y_cn, with a_k root edges); x names
    the path-end vertex across its negative edge."""
    w = FreeWord.gen
    yi = w("y%d" % i)
    across = (w(x).inverse() * yi).inverse()
    if i == 0:
        return across * yi ** a_k * (w("y1").inverse() * yi)
    return (w("y%d" % (i - 1)).inverse() * yi) * yi ** a_k * across


def root_relator(a, b):
    """Relator of the root vertex, y_cn^-a_n ... y_c1^-a_1 y_0^-a_0."""
    c = prefix_sums(b)
    return FreeWord([("y%d" % c[k], -1) for k in range(len(b), -1, -1)
                     for _ in range(a[k])])


def cycle_relators(m, a, b):
    """The relator of every vertex of the cycle graph, keyed by generator.

    All relators are written with z already set to 1 except the bare `z`
    itself; `z_rel` is the root vertex relator y_cn^-a_n ... y_0^-a_0.
    """
    n = len(b)
    if n + 1 != len(a):
        raise ValueError("need len(a) == len(b) + 1")
    cn = sum(b)
    c = prefix_sums(b)
    sym = lambda i: x_sym(i, m, cn)
    w = FreeWord.gen
    rel = {"x%d" % i: _path_relator(sym, i) for i in range(1, m)}
    if n > 0:
        rel["y0"] = _end_relator(0, a[0], sym(1))
        for k in range(1, n):
            rel["y%d" % c[k]] = _marked_relator(a[k], c[k])
        rel["y%d" % cn] = _end_relator(cn, a[n], sym(m - 1))
        marked = set(c)
        for i in range(1, cn):
            if i not in marked:
                rel["y%d" % i] = _unmarked_relator(i)
    else:
        # single marked vertex, all-negative cycle through the x path
        y0 = w("y0")
        rel["y0"] = (w(sym(1)).inverse() * y0).inverse() * y0 ** a[0] \
            * (w(sym(m - 1)).inverse() * y0).inverse()
    rel["z"] = w("z")
    rel["z_rel"] = root_relator(a, b)
    return rel


# ---------------------------------------------------------------------------
# Lemma replay.
# ---------------------------------------------------------------------------

@dataclass
class ProofStep:
    rule: str
    target: str
    using: str
    word: FreeWord

    def to_json(self):
        return {"rule": self.rule, "target": self.target,
                "using": self.using, "word": format_word(self.word, fold=False)}


@dataclass
class ProofTranscript:
    name: str
    params: dict
    steps: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def record(self, rule, target, using, word):
        self.steps.append(ProofStep(rule, target, using, word))

    def to_json(self):
        return {"lemma": self.name, "params": self.params,
                "steps": [s.to_json() for s in self.steps]}


def replay_transcript(t):
    """Re-run every recorded elimination from scratch; False on any mismatch.

    Substitution steps are re-derived from the recorded relator text and the
    accumulated definitions, so a corrupted step list cannot pass.
    """
    defs = {}
    for step in t.steps:
        if step.rule == "begin":
            defs = {}
        elif step.rule == "define":
            defs[step.target] = step.word
        elif step.rule == "solve":
            rel = parse_word(step.using)
            got = solve_relation(rel, step.target).substitute(defs)
            if got != step.word:
                return False
            defs[step.target] = got
        elif step.rule == "check":
            lhs = parse_word(step.using).substitute(defs)
            if lhs != step.word:
                return False
        else:
            return False
    return True


def verify_lemma_x(m, cn=None):
    """x_i = (x1 x0^-1)^(i-1) x1 for 0 <= i <= m, by eliminating up the path.

    With cn given, path ends use the cycle aliases y0 and y{cn}.
    """
    if m < 1:
        raise ValueError("m >= 1")
    sym = (lambda i: x_sym(i, m, cn)) if cn is not None else \
        (lambda i: "x%d" % i)
    w = FreeWord.gen
    t = ProofTranscript("x", {"m": m})
    x0, x1 = w(sym(0)), w(sym(1))
    known = {sym(0): x0, sym(1): x1}
    t.record("define", sym(0), "", x0)
    t.record("define", sym(1), "", x1)
    closed = {}
    for i in range(0, m + 1):
        closed[i] = (x1 * x0.inverse()) ** (i - 1) * x1
    if closed[0] != x0 or closed[1] != x1:
        raise RewriteError("closed form fails at the base cases")
    for i in range(1, m):
        # relator at x_i, solved for x_{i+1}
        rel = _path_relator(sym, i)
        expr = solve_relation(rel, sym(i + 1)).substitute(known)
        if expr != closed[i + 1]:
            raise RewriteError("lemma x fails at i=%d" % (i + 1))
        known[sym(i + 1)] = expr
        t.record("solve", sym(i + 1), format_word(rel, fold=False), expr)
    t.results = {sym(i): closed[i] for i in range(m + 1)}
    return t


def verify_lemma_y(a, b):
    """Forward and backward closed forms on every y segment.

    Forward, for c_{k-1} <= i <= c_k:
        y_i = (A y_{c_{k-1}}^-1)^(i - c_{k-1} - 1) A,   A = y_{c_{k-1}+1}
    and backward:
        y_i = (B y_{c_k}^-1)^(c_k - i - 1) B = B (y_{c_k}^-1 B)^(c_k - i - 1),
        B = y_{c_k - 1}.
    Both are derived by eliminating through the unmarked relators and the two
    backward shapes are checked against each other and against the forward
    form expressed in the same generators.
    """
    n = len(b)
    if n < 1:
        raise ValueError("need n >= 1")
    w = FreeWord.gen
    c = prefix_sums(b)
    t = ProofTranscript("y", {"a": list(a), "b": list(b)})
    for k in range(1, n + 1):
        lo, hi = c[k - 1], c[k]
        A = w("y%d" % (lo + 1))
        ylo = w("y%d" % lo)
        t.record("begin", "segment%d-forward" % k, "", FreeWord())
        fwd = {lo: ylo, lo + 1: A}
        for i in range(lo + 1, hi):
            expr = solve_relation(_unmarked_relator(i), "y%d" % (i + 1))
            expr = expr.substitute({"y%d" % i: fwd[i], "y%d" % (i - 1): fwd[i - 1]})
            fwd[i + 1] = expr
            t.record("solve", "y%d" % (i + 1), format_word(_unmarked_relator(i), fold=False), expr)
        for i in range(lo, hi + 1):
            want = (A * ylo.inverse()) ** (i - lo - 1) * A
            if fwd[i] != want:
                raise RewriteError("forward form fails in segment %d at i=%d" % (k, i))
        B = w("y%d" % (hi - 1))
        yhi = w("y%d" % hi)
        bwd = {hi: yhi, hi - 1: B}
        back = []
        for i in range(hi - 1, lo, -1):
            expr = solve_relation(_unmarked_relator(i), "y%d" % (i - 1))
            expr = expr.substitute({"y%d" % i: bwd[i], "y%d" % (i + 1): bwd[i + 1]})
            bwd[i - 1] = expr
            back.append(("y%d" % (i - 1),
                         format_word(_unmarked_relator(i), fold=False), expr))
        for i in range(lo, hi + 1):
            want1 = (B * yhi.inverse()) ** (hi - i - 1) * B
            want2 = B * (yhi.inverse() * B) ** (hi - i - 1)
            if bwd[i] != want1 or want1 != want2:
                raise RewriteError("backward form fails in segment %d at i=%d" % (k, i))
        # cross-check inside the forward block: the backward expressions,
        # with their base points rewritten forward, reproduce the forward
        # forms; recorded so the replay repeats the substitution
        base = {"y%d" % (hi - 1): fwd[hi - 1], "y%d" % hi: fwd[hi]}
        for i in range(lo, hi + 1):
            if bwd[i].substitute(base) != fwd[i]:
                raise RewriteError("forward/backward mismatch in segment %d at i=%d" % (k, i))
            t.record("check", "y%d" % i, format_word(bwd[i], fold=False), fwd[i])
        t.record("begin", "segment%d-backward" % k, "", FreeWord())
        for target, using, expr in back:
            t.record("solve", target, using, expr)
    return t


# The derivations below never use the relators of the x path, of y_cn, or
# of the root, so they are carried out with the path-end symbols kept
# formal: "x1" on the left and x_{m-1} ("x0" when m = 1) on the right.  For
# m = 1 those are aliases of y_cn and y0, and every identity proved in the
# formal group maps onto the actual presentation under the alias quotient.

LEFT_X = "x1"


def right_x_symbol(m):
    return "x%d" % (m - 1) if m >= 2 else "x0"


def _eliminate(name, m, a, b, first, end_x):
    """Solve the arc relators in turn from the end y_first to the other end,
    leaving every y_i as a word in y_first and the formal symbol end_x."""
    cn = sum(b)
    idx_of = {ck: k for k, ck in enumerate(prefix_sums(b))}
    step = 1 if first == 0 else -1
    t = ProofTranscript(name, {"m": m, "a": list(a), "b": list(b)})
    known = {}
    for i in range(first, cn - first, step):
        if i == first:
            r = _end_relator(i, a[idx_of[i]], end_x)
        elif i in idx_of:
            r = _marked_relator(a[idx_of[i]], i)
        else:
            r = _unmarked_relator(i)
        target = "y%d" % (i + step)
        expr = solve_relation(r, target).substitute(known)
        known[target] = expr
        t.record("solve", target, format_word(r, fold=False), expr)
    t.results = dict(known)
    t.results["y%d" % first] = FreeWord.gen("y%d" % first)
    return t


def left_elimination(m, a, b):
    """Ground truth: every y_i as a reduced word in y0 and the formal x1.

    Solves r(y0) for y1, then walks the positive arc upward through the
    unmarked and interior marked relators.  Transcript steps are recorded on
    the returned ProofTranscript.
    """
    return _eliminate("left-elimination", m, a, b, 0, LEFT_X)


def right_elimination(m, a, b):
    """Ground truth from the other end: y_i over y_cn and the formal x_{m-1}."""
    return _eliminate("right-elimination", m, a, b, sum(b), right_x_symbol(m))


# Marker symbols for the two-element alphabets of the end lemmas.
QL = "qL"   # stands for x1 y0^(a0-1)
QR = "qR"   # stands for y_cn^(an-1) x_{m-1}


def left_alphabet(a):
    return {"y0": FreeWord.gen("y0"),
            QL: FreeWord.gen(LEFT_X) * FreeWord.gen("y0") ** (a[0] - 1)}


def right_alphabet(m, a, cn):
    return {"y%d" % cn: FreeWord.gen("y%d" % cn),
            QR: FreeWord.gen("y%d" % cn) ** (a[-1] - 1)
                * FreeWord.gen(right_x_symbol(m))}


def right_words(a, b):
    """The right lemma's recursion over the alphabet {y_cn, qR}, shared by
    the certificate builder and its check.

    Returns (words, diffs): words[k] stands for y_{c_k}, and diffs[k] for
    y_{c_k}^-1 y_{c_k - 1} (k >= 1).
    """
    n = len(b)
    words = [None] * n + [FreeWord.gen("y%d" % sum(b))]
    diffs = [None] * n + [FreeWord.gen(QR)]
    for k in range(n - 1, -1, -1):
        # y_{c_k} = y_{c_{k+1}} (y_{c_{k+1}}^-1 y_{c_{k+1}-1})^{b_{k+1}}
        words[k] = words[k + 1] * diffs[k + 1] ** b[k]
        if k > 0:
            diffs[k] = words[k] ** a[k] * diffs[k + 1]
    return words, diffs


def verify_lemma_left(d):
    """Positive words in {y0, x1 y0^(a0-1)} for every marked y, validated
    letter-for-letter against the left elimination.

    Returns (transcript, words) where words[k] is the expression for y_{c_k}
    over the marker alphabet {y0, qL}; the transcript's results are the
    left elimination's words for every y_i.
    """
    m, a, b = d.m, list(d.a), list(d.b)
    n = len(b)
    if n < 1:
        raise ValueError("need n >= 1")
    c = d.c
    elim = left_elimination(m, a, b)
    alpha = left_alphabet(a)
    expand = lambda w: w.substitute(alpha)
    t = ProofTranscript("left", {"m": m, "a": a, "b": b})
    t.record("define", QL, "", alpha[QL])
    t.steps.extend(elim.steps)
    w = FreeWord.gen
    words = {0: w("y0")}
    # S_k represents y_{c_k + 1} y_{c_k}^-1 over the alphabet
    S = w(QL)
    got = expand(S)
    want = (elim.results["y%d" % (c[0] + 1)] * elim.results["y0"].inverse())
    if got != want:
        raise RewriteError("base step y1 y0^-1 fails")
    t.record("check", "y1 y0^-1", QL, got)
    for k in range(1, n + 1):
        # y_{c_k} = (y_{c_{k-1}+1} y_{c_{k-1}}^-1)^{b_k} y_{c_{k-1}}
        words[k] = S ** b[k - 1] * words[k - 1]
        got = expand(words[k])
        if got != elim.results["y%d" % c[k]]:
            raise RewriteError("left word fails at k=%d" % k)
        if not words[k].is_positive():
            raise RewriteError("left word not positive at k=%d" % k)
        t.record("check", "y%d" % c[k], format_word(words[k], fold=False), got)
        if k < n:
            S = S * words[k] ** a[k]
            got = expand(S)
            want = elim.results["y%d" % (c[k] + 1)] * elim.results["y%d" % c[k]].inverse()
            if got != want:
                raise RewriteError("left difference fails at k=%d" % k)
            t.record("check", "y%d y%d^-1" % (c[k] + 1, c[k]),
                     format_word(S, fold=False), got)
    t.results = elim.results
    return t, [words[k] for k in range(n + 1)]


def verify_lemma_right(d):
    """Mirror of the left lemma: positive words in {y_cn, y_cn^(an-1) x_{m-1}}.

    Validated against the right elimination, independently of the mirror
    construction used to produce the words.
    """
    m, a, b = d.m, list(d.a), list(d.b)
    n = len(b)
    if n < 1:
        raise ValueError("need n >= 1")
    cn, c = d.cn, d.c
    elim = right_elimination(m, a, b)
    alpha = right_alphabet(m, a, cn)
    expand = lambda w: w.substitute(alpha)
    t = ProofTranscript("right", {"m": m, "a": a, "b": b})
    t.record("define", QR, "", alpha[QR])
    t.steps.extend(elim.steps)
    words, diffs = right_words(a, b)
    ycn = "y%d" % cn
    got = expand(diffs[n])
    want = elim.results[ycn].inverse() * elim.results["y%d" % (cn - 1)]
    if got != want:
        raise RewriteError("base step y_cn^-1 y_{cn-1} fails")
    t.record("check", "%s^-1 y%d" % (ycn, cn - 1), QR, got)
    for k in range(n - 1, -1, -1):
        got = expand(words[k])
        if got != elim.results["y%d" % c[k]]:
            raise RewriteError("right word fails at k=%d" % k)
        if not words[k].is_positive():
            raise RewriteError("right word not positive at k=%d" % k)
        t.record("check", "y%d" % c[k], format_word(words[k], fold=False), got)
        if k > 0:
            got = expand(diffs[k])
            want = elim.results["y%d" % c[k]].inverse() * elim.results["y%d" % (c[k] - 1)]
            if got != want:
                raise RewriteError("right difference fails at k=%d" % k)
            t.record("check", "y%d^-1 y%d" % (c[k], c[k] - 1),
                     format_word(diffs[k], fold=False), got)
    return t, words


def verify_product_relation(d):
    """w_0 w_1 ... w_n = 1 where w_k expresses y_{c_k}^{a_k} over {y0, qL}.

    The product, expanded through the left elimination of its own
    verify_lemma_left call, must coincide with the eliminated image of the
    inverted root relator y0^a0 y_{c_1}^a1 ... y_{c_n}^an, taken from
    root_relator, the helper cycle_relators uses for z_rel.  The results
    hold the product and the left words.
    """
    m, a, b = d.m, list(d.a), list(d.b)
    if len(b) < 1:
        raise ValueError("degenerate cycle: n = 0")
    t, yw = verify_lemma_left(d)
    alpha = left_alphabet(a)
    product = FreeWord([x for wk, ak in zip(yw, a) for x in (wk ** ak).letters])
    if not product.is_positive() or product.is_identity():
        raise RewriteError("product word must be a nonempty positive word")
    if product.count("y0") == 0:
        raise RewriteError("product word must mention y0")
    lhs = product.substitute(alpha)
    rhs = root_relator(a, b).inverse().substitute(t.results)
    if lhs != rhs:
        raise RewriteError("product does not match the root relation")
    out = ProofTranscript("product", {"m": m, "a": a, "b": b})
    out.steps = list(t.steps)
    out.record("check", "w0...wn", format_word(product, fold=False), lhs)
    out.results = {"product": product, "expanded": lhs, "words": yw}
    return out
