"""Free-group word engine and replay of the cycle-presentation rewriting lemmas.

Words live in the free group on named generators and are always stored
freely reduced.  The verifiers in the second half of this module check
the closed forms used to order-obstruct the cycle-form presentations: the
x-path telescope and the y-segment telescopes (forward and backward).
Every relator they check is read from `rel`, a {region: relator} map of
the cycle graph's own presentation that the caller passes in; no relator
is spelled here, and solve_relation gives the same word under any
rotation or inversion of a relator.  Each relator along a telescope is checked as the one-step recursion
u_{i+1} = u_i u_{i-1}^-1 u_i, the closed forms follow by induction, and
only the end words that the rules substitute are built.  The two end
lemmas write every marked y-generator as a positive word over a
two-letter alphabet, from either end of the cycle.  Those words grow
exponentially in the number of segments, so they are kept as
straight-line programs: named rules Wk (for y_{c_k}) and Dk (a
difference of neighbours), each body a short word over the alphabet and
earlier names.  check_rules checks each rule by one local identity
against the arc relators (an end relator, a segment telescope, a marked
relator) with the earlier names kept opaque, so no lemma word is
expanded.  The product relation is the root relator written over the
names.  Every failed check raises RewriteError.  left_elimination and
right_elimination, the full expansions by elimination, are not on the
checking path; the tests compare the rules' expansions with them.
"""

from __future__ import annotations


class RewriteError(Exception):
    pass


def reduce_letters(letters):
    """Free reduction of (generator, +1/-1) letters, as a tuple."""
    out = []
    for sym, sign in letters:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def least_rotation(seq):
    """The least rotation of a tuple, in linear time.

    Duval's Lyndon factorisation of seq + seq: the last factor that starts
    in the first copy starts the least rotation (Duval, J. Algorithms 4,
    1983)."""
    n = len(seq)
    ss = seq + seq
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n:
            x, y = ss[k], ss[j]
            if y < x:
                break
            k = k + 1 if x == y else i
            j += 1
        while i <= k:
            i += j - k
    return ss[start:start + n]


def run_lengths(letters):
    """Run-length encoding [(generator, signed length), ...] of letters."""
    out = []
    last, k = None, 0
    for x in letters:
        if x == last:
            k += 1
        else:
            if k:
                out.append((last[0], last[1] * k))
            last, k = x, 1
    if k:
        out.append((last[0], last[1] * k))
    return out


def reduce_runs(runs):
    """Free reduction of [(generator, signed exponent), ...] syllables:
    neighbouring syllables of one generator add up, and a zero drops out,
    so the cost is one step per syllable, not per letter."""
    out = []
    for sym, exp in runs:
        if out and out[-1][0] == sym:
            exp += out.pop()[1]
        if exp:
            out.append((sym, exp))
    return out


def expand_runs(runs):
    """The letter tuple of [(generator, signed exponent), ...] syllables."""
    letters = []
    for sym, exp in runs:
        letters += ((sym, 1 if exp > 0 else -1),) * abs(exp)
    return tuple(letters)


class FreeWord:
    """A freely reduced word; letters are (generator name, +1/-1) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = reduce_letters(letters)

    @classmethod
    def _reduced(cls, letters):
        """The word of a letter tuple already known to be freely reduced."""
        w = cls.__new__(cls)
        w.letters = letters
        return w

    @staticmethod
    def gen(sym, exp=1):
        return FreeWord._reduced(((sym, 1 if exp >= 0 else -1),) * abs(exp))

    @staticmethod
    def from_pairs(pairs):
        """Build from run-length [(sym, exp), ...] pairs, reduced syllable by
        syllable."""
        return FreeWord._reduced(expand_runs(reduce_runs(pairs)))

    def pairs(self):
        """Run-length encode back to [(sym, exp), ...]."""
        return run_lengths(self.letters)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    def inverse(self):
        return FreeWord._reduced(tuple((s, -sg) for s, sg in reversed(self.letters)))

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
        w = self.letters
        i, j = 0, len(w)
        while j - i >= 2 and w[i][0] == w[j - 1][0] and w[i][1] == -w[j - 1][1]:
            i += 1
            j -= 1
        return self if i == 0 else FreeWord._reduced(w[i:j])

    def canonical_cyclic(self):
        """Least rotation over the word and its inverse; relator identity key."""
        w = self.cyclic_reduce()
        return min(least_rotation(w.letters), least_rotation(w.inverse().letters))

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


def parse_word(text, bound=None):
    """Inverse of the plain printer: whitespace separated sym or sym^exp.
    An exponent above `bound` in absolute value is refused before any
    letters are built."""
    pairs = []
    for tok in text.split():
        if tok == "1":
            continue
        if "^" in tok:
            sym, _, exp = tok.partition("^")
            pairs.append((sym, int(exp)))
        else:
            pairs.append((tok, 1))
    if bound is not None:
        for sym, exp in pairs:
            if abs(exp) > bound:
                raise RewriteError("exponent %s^%d exceeds %d" % (sym, exp, bound))
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
    if not r.substitute({g: w}).is_identity():
        raise RewriteError("substituting for %s does not kill the relator" % g)
    return w


# ---------------------------------------------------------------------------
# Cycle-form names.
#
# Generators: y0..y{cn} around the positive arc, x1..x{m-1} on the negative
# arc; the root z is killed.  x0 and xm are aliases of y0 and y{cn}.  The
# verifiers read every relator they check from `rel`, a {region: relator}
# map of a cycle graph's presentation, the root's under "z".  The caller
# builds it (ordercheck.arc_relators), as this module cannot import diagram.
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


# ---------------------------------------------------------------------------
# Lemma replay.
# ---------------------------------------------------------------------------

class ProofTranscript:
    """What a verifier proved: the lemma's name and the words it derived."""

    def __init__(self, name, results):
        self.name, self.results = name, results


def _check_telescope(rel, sym, lo, hi):
    """Check that the relator of every u_i, lo < i < hi, says
    u_{i+1} = u_i u_{i-1}^-1 u_i, where u_j is the generator sym(j).

    rel[u_i] is solved for u_{i+1} with the generators kept opaque, so
    each vertex costs one comparison of constant size.  The one equation
    gives both closed forms of the telescope by induction.  Forward, let
    A = u_{lo+1} and S = A u_lo^-1; then u_i = S^(i-lo-1) A holds at
    i = lo and lo + 1, and if it holds at i - 1 and i, with j = i - lo - 1,
        u_{i+1} = S^j A (S^(j-1) A)^-1 S^j A = S^(j+1) A.
    Backward, the equation also reads u_{i-1} = u_i u_{i+1}^-1 u_i, and the
    same induction down from hi gives u_i = (B u_hi^-1)^(hi-i-1) B with
    B = u_{hi-1}.  Raises RewriteError naming the first vertex whose
    relator says otherwise.
    """
    g = FreeWord.gen
    for i in range(lo + 1, hi):
        u = g(sym(i))
        try:
            ok = solve_relation(rel[sym(i)], sym(i + 1)) == u * g(sym(i - 1)).inverse() * u
        except RewriteError:
            ok = False
        if not ok:
            raise RewriteError("telescope fails at the relator of %s" % sym(i))


def verify_lemma_x(rel, m, cn):
    """x_i = (x1 x0^-1)^(i-1) x1 for 0 <= i <= m, by _check_telescope on the
    path relators in rel, the path ends being the aliases y0 and y{cn}.
    The results hold the two end words, x_{m-1} and x_m.
    """
    if m < 1:
        raise ValueError("m >= 1")
    sym = lambda i: x_sym(i, m, cn)
    _check_telescope(rel, sym, 0, m)
    x0, x1 = FreeWord.gen(sym(0)), FreeWord.gen(sym(1))
    return ProofTranscript("x", {sym(i): (x1 * x0.inverse()) ** (i - 1) * x1
                                 for i in (m - 1, m)})


def verify_lemma_y(rel, b):
    """Forward and backward closed forms on every y segment.

    On segment k, with lo = c_{k-1} and hi = c_k, _check_telescope checks
    the unmarked relators in rel, so for lo <= i <= hi
        forward:  y_i = (A y_lo^-1)^(i - lo - 1) A,   A = y_{lo+1},
        backward: y_i = (B y_hi^-1)^(hi - i - 1) B,   B = y_{hi-1}.
    The results map "forward" and "backward" to {k: {y_i: its form}},
    holding the end words _rule_targets substitutes: forward y_{hi-1} and
    y_hi, backward y_lo and y_{lo+1}.
    """
    n = len(b)
    if n < 1:
        raise ValueError("need n >= 1")
    y = lambda i: FreeWord.gen("y%d" % i)
    c = prefix_sums(b)
    forms = {"forward": {}, "backward": {}}
    for k in range(1, n + 1):
        lo, hi = c[k - 1], c[k]
        _check_telescope(rel, lambda i: "y%d" % i, lo, hi)
        A, B = y(lo + 1), y(hi - 1)
        forms["forward"][k] = {"y%d" % i: (A * y(lo).inverse()) ** (i - lo - 1) * A
                               for i in (hi - 1, hi)}
        forms["backward"][k] = {"y%d" % i: (B * y(hi).inverse()) ** (hi - i - 1) * B
                                for i in (lo, lo + 1)}
    return ProofTranscript("y", forms)


# The end lemmas and the product relation read from rel the arc relators
# (y0's and y_cn's, the segments' and the interior marked ones) and the
# root's.  These depend on m only through the name of the path-end
# neighbour across the negative edge of y0 and of y_cn: x1 and x_{m-1}.
# For m = 1 that neighbour is the other arc end, and when c_n = 1 too,
# y0's relator holds y1 twice and cannot be solved for it.  So for m = 1
# rel is read from the graph of (2, a, b), where the neighbour is x1 at
# both ends and stays a formal symbol.  The left derivation uses y0's
# relator and never y_cn's, the right one the reverse, and neither uses
# the x path; so x1 -> y_cn (left) and x1 -> y0 (right) map every
# relator either uses onto a relator of (1; a; b), and every identity it
# proves holds in the actual group with x1 read as that alias.

LEFT_X = "x1"


def right_x_symbol(m):
    """x_{m-1}, the path-end neighbour of y_cn in rel (x1 when m = 1)."""
    return "x%d" % (max(m, 2) - 1)


def _eliminate(rel, b, first):
    """Solve the arc relators in rel in turn from the end y_first to the
    other end, leaving every y_i as a word in y_first and the formal
    path-end symbol."""
    cn = sum(b)
    step = 1 if first == 0 else -1
    known = {}
    for i in range(first, cn - first, step):
        target = "y%d" % (i + step)
        known[target] = solve_relation(rel["y%d" % i], target).substitute(known)
    known["y%d" % first] = FreeWord.gen("y%d" % first)
    return known


def left_elimination(rel, b):
    """Ground truth: every y_i as a reduced word in y0 and the formal x1.

    Solves r(y0) for y1, then walks the positive arc upward through the
    unmarked and interior marked relators; the results map each y_i to its
    word.
    """
    return ProofTranscript("left-elimination", _eliminate(rel, b, 0))


def right_elimination(rel, b):
    """Ground truth from the other end: y_i over y_cn and the formal x_{m-1}."""
    return ProofTranscript("right-elimination", _eliminate(rel, b, sum(b)))


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


def left_rules(a, b):
    """The left lemma as a straight-line program over the alphabet {y0, qL}.

    Returns [(name, body), ...] in order: W0 = y0, D0 = qL, and for
    k = 1..n
        Wk = D(k-1)^b_k W(k-1),   standing for y_{c_k},
        Dk = D(k-1) Wk^a_k,       standing for y_{c_k + 1} y_{c_k}^-1 (k < n).
    Each body is a positive word over the alphabet and earlier names.
    """
    n = len(b)
    g = FreeWord.gen
    rules = [("W0", g("y0")), ("D0", g(QL))]
    for k in range(1, n + 1):
        rules.append(("W%d" % k, g("D%d" % (k - 1), b[k - 1]) * g("W%d" % (k - 1))))
        if k < n:
            rules.append(("D%d" % k, g("D%d" % (k - 1)) * g("W%d" % k, a[k])))
    return rules


def right_rules(a, b):
    """The mirror of left_rules, over {y_cn, qR} from the other end.

    Wn = y_cn, Dn = qR, and for k = n-1..0
        Wk = W(k+1) D(k+1)^b_{k+1},  standing for y_{c_k},
        Dk = Wk^a_k D(k+1),          standing for y_{c_k}^-1 y_{c_k - 1} (k > 0).
    """
    n = len(b)
    g = FreeWord.gen
    rules = [("W%d" % n, g("y%d" % sum(b))), ("D%d" % n, g(QR))]
    for k in range(n - 1, -1, -1):
        rules.append(("W%d" % k, g("W%d" % (k + 1)) * g("D%d" % (k + 1), b[k])))
        if k > 0:
            rules.append(("D%d" % k, g("W%d" % k, a[k]) * g("D%d" % (k + 1))))
    return rules


def _rule_targets(d, rel, side, segments):
    """What each symbol of one side's rules stands for, and how its rule is
    checked: {symbol: (word over the arc generators, substitution)}.

    The letters of the alphabet have no substitution.  A name's
    substitution rewrites the generators its rule involves by the arc
    relators in rel: the end relator for D0 (Dn on the right), the segment
    telescope of verify_lemma_y for Wk (forward on the left, backward on
    the right; `segments` is that lemma's transcript), and that telescope
    with the marked relator at y_{c_k} for the other Dk.  The telescope
    leaves its base pair as it is, so a substitution needs only the two
    end words next to y_{c_k}.
    """
    a, c, n, cn = d.a, d.c, d.n, d.cn
    y = lambda i: FreeWord.gen("y%d" % i)
    solve = lambda v, i: solve_relation(rel["y%d" % v], "y%d" % i)
    if side == "left":
        segments = segments.results["forward"]
        out = {s: (word, None) for s, word in left_alphabet(a).items()}
        out["W0"] = (y(0), {})
        out["D0"] = (y(1) * y(0).inverse(),
                     {"y1": solve(0, 1)})
        for k in range(1, n + 1):
            hi, seg = c[k], segments[k]
            out["W%d" % k] = (y(hi), seg)
            if k < n:
                up = solve(hi, hi + 1).substitute(seg)
                out["D%d" % k] = (y(hi + 1) * y(hi).inverse(),
                                  dict(seg, **{"y%d" % (hi + 1): up}))
    else:
        segments = segments.results["backward"]
        out = {s: (word, None) for s, word in right_alphabet(d.m, a, cn).items()}
        out["W%d" % n] = (y(cn), {})
        out["D%d" % n] = (y(cn).inverse() * y(cn - 1),
                          {"y%d" % (cn - 1): solve(cn, cn - 1)})
        for k in range(n - 1, -1, -1):
            lo, seg = c[k], segments[k + 1]
            out["W%d" % k] = (y(lo), seg)
            if k > 0:
                down = solve(lo, lo - 1).substitute(seg)
                out["D%d" % k] = (y(lo).inverse() * y(lo - 1),
                                  dict(seg, **{"y%d" % (lo - 1): down}))
    return out


def check_rules(d, rel, side, rules, segments=None):
    """Check one side's lemma rules one at a time, each by one local identity.

    `rules` is [(name, body), ...].  A body may use the side's alphabet and
    the names whose rules come before it, and must be a nonempty positive
    word.  Each name stands for a word over the arc generators
    (_rule_targets).  Its rule holds when that word and the body, with
    every symbol replaced by what it stands for, agree once the rule's
    substitution has rewritten both.  The substitutions come from the arc
    relators in rel, so each rule holds in the group, and by induction every name
    expands to a positive word over the alphabet that equals what the name
    stands for.  Earlier names stay opaque and each substitution holds
    two end words of one segment, so no body is expanded and the cost is
    linear in the parameters.  `segments` is verify_lemma_y's
    transcript for d, derived here when not given.  Raises RewriteError at
    the first rule that fails.  Returns ({name: body}, words), words[i]
    being the word both sides of the i-th rule were rewritten to.
    """
    if not rules:
        raise RewriteError("%s rules: none given" % side)
    targets = _rule_targets(d, rel, side, segments or verify_lemma_y(rel, d.b))
    stands = {s: word for s, (word, sub) in targets.items() if sub is None}
    names = {name for name, _ in rules}
    checked, words = {}, []
    for name, body in rules:
        if name not in targets or targets[name][1] is None:
            raise RewriteError("%s rules: no rule %s on this side" % (side, name))
        if name in checked:
            raise RewriteError("%s rules: %s has two rules" % (side, name))
        for sym, _ in body.letters:
            if sym in stands:
                continue
            why = "itself" if sym == name else \
                "%s, defined after it" % sym if sym in names else \
                "%s, which has no rule" % sym if sym in targets else \
                "unknown symbol %s" % sym
            raise RewriteError("%s rule %s refers to %s" % (side, name, why))
        if not body or not body.is_positive():
            raise RewriteError("%s rule %s is not a nonempty positive word" % (side, name))
        word, sub = targets[name]
        got = body.substitute(stands).substitute(sub)
        if got != word.substitute(sub):
            raise RewriteError("%s rule %s fails" % (side, name))
        stands[name] = word
        checked[name] = body
        words.append(got)
    return checked, words


def verify_lemma_left(d, rel, segments=None):
    """Positive words in {y0, x1 y0^(a0-1)} for every marked y, as the
    rules of left_rules, each checked against the arc relators in rel by
    check_rules (`segments` as there).  Returns check_rules' (rules,
    words); rules["Wk"] is the body of the rule for y_{c_k}.
    """
    return check_rules(d, rel, "left", left_rules(d.a, d.b), segments)


def verify_lemma_right(d, rel, rules=None, segments=None):
    """Mirror of the left lemma: positive words in {y_cn, y_cn^(an-1) x_{m-1}}.

    Checks `rules` ([(name, body), ...], as a certificate carries them), or
    right_rules when none are given, by check_rules (rel and `segments` as
    there).  Returns (rules, words).
    """
    return check_rules(d, rel, "right",
                       right_rules(d.a, d.b) if rules is None else rules, segments)


def verify_product_relation(d, rel, segments=None):
    """W0^a0 W1^a1 ... Wn^an = 1 over the names of the left rules.

    This is the root relator rel["z"], inverted, with each y_{c_k} written
    Wk: verify_lemma_left checked that Wk equals y_{c_k} in the group, and
    the root relator is 1 there.  Left to check is the shape the
    certificate needs.  The inverted root relator must be a nonempty
    positive word in the marked y's, and every rule is positive
    (check_rules checked them one by one), so the product expands to a
    nonempty positive word.  It must mention y0, which is read off the
    rules: a name mentions y0 when its body mentions y0 or a name that
    does.  The results hold the product and the left rules.  `segments`
    is passed to verify_lemma_left.  A cycle with n = 0 raises ValueError
    from verify_lemma_left.
    """
    rules, _ = verify_lemma_left(d, rel, segments)
    name = {"y%d" % ck: "W%d" % k for k, ck in enumerate(d.c)}
    root = rel["z"].inverse()
    if not root or not root.is_positive() or not root.symbols() <= name.keys():
        raise RewriteError("root relator is not a negative word in the marked y's")
    product = FreeWord._reduced(tuple((name[s], e) for s, e in root.letters))
    mentions = {"y0"}
    for nm, body in rules.items():
        if body.symbols() & mentions:
            mentions.add(nm)
    if not product.symbols() & mentions:
        raise RewriteError("product word must mention y0")
    return ProofTranscript("product", {"product": product, "rules": rules})
