"""Three-strand braid words: parsing, reduction, classification, normalization.

A word is a sequence of signed Artin letters s1/s2 plus a symbolic power of
the central full twist h = (s2 s1)^3.  Classification into the three
families and the two normalization chains work only up to free reduction,
cyclic permutation, the braid relation, and symbolic h bookkeeping; no
general conjugacy machinery is used.  Normalizations are emitted as move
transcripts that replay mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


class BraidError(Exception):
    pass


class NormalizationError(BraidError):
    pass


MAX_LETTERS = 10 ** 6   # longest word parse_braid expands, each h six letters

# letters are (generator, sign) with generator 1 or 2 and sign +1/-1
S1, S1I, S2, S2I = (1, 1), (1, -1), (2, 1), (2, -1)

# the four admissible spellings of h^{+1} / h^{-1}
TWIST_POS = (
    (S2, S1, S2, S1, S2, S1),   # (s2 s1)^3, the canonical expansion
    (S1, S2, S1, S2, S1, S2),   # (s1 s2)^3
)
TWIST_NEG = tuple(tuple((g, -s) for g, s in reversed(p)) for p in TWIST_POS)


def reduce_letters(letters):
    out = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


@dataclass(frozen=True)
class BraidWord:
    """Freely reduced letters plus the symbolic full-twist power d."""
    letters: tuple = ()
    fulltwist: int = 0

    def __post_init__(self):
        for g, s in self.letters:
            if g not in (1, 2) or s not in (1, -1):
                raise BraidError("bad letter %r" % ((g, s),))
        object.__setattr__(self, "letters", reduce_letters(self.letters))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return format_braid(self)


def parse_braid(text):
    """Tokens s1, s2, h with optional ^k, whitespace separated; a word
    longer than MAX_LETTERS is refused before any letter is built."""
    runs = []
    d = 0
    for tok in text.split():
        if tok == "1":
            continue
        base, sep, exp = tok.partition("^")
        if sep:
            try:
                k = int(exp)
            except ValueError:
                raise BraidError("non-integer exponent in %r" % tok)
        else:
            k = 1
        if base == "h":
            d += k
        elif base in ("s1", "s2"):
            runs.append((1 if base == "s1" else 2, k))
        else:
            raise BraidError("malformed token %r" % tok)
    size = sum(abs(k) for _, k in runs) + 6 * abs(d)
    if size > MAX_LETTERS:
        raise BraidError("word expands to %d letters, more than %d" % (size, MAX_LETTERS))
    letters = [(g, 1 if k > 0 else -1) for g, k in runs for _ in range(abs(k))]
    return BraidWord(tuple(letters), d)


def format_braid(w):
    """Canonical string: h power first, then run-length letters."""
    parts = []
    if w.fulltwist == 1:
        parts.append("h")
    elif w.fulltwist:
        parts.append("h^%d" % w.fulltwist)
    parts += ["s%d" % g if e == 1 else "s%d^%d" % (g, e) for g, e in _runs(w.letters)]
    return " ".join(parts) if parts else "1"


def expand_fulltwist(w):
    """Replace each symbolic h by (s2 s1)^3 (inverse for negative powers)."""
    d = w.fulltwist
    block = TWIST_POS[0] if d >= 0 else TWIST_NEG[0]
    return BraidWord(block * abs(d) + w.letters, 0)


def cyclic_conjugate(w, k):
    if not 0 <= k <= len(w.letters):
        raise BraidError("rotation out of range")
    ls = w.letters
    return BraidWord(ls[k:] + ls[:k], w.fulltwist)


def exponent_sum(w):
    return sum(s for _, s in w.letters) + 6 * w.fulltwist


def mirror(w, exchange=False):
    """Invert every letter and negate d; with exchange=True swap s1 <-> s2
    instead (an inner automorphism, so the closure is unchanged)."""
    if exchange:
        return BraidWord(tuple((3 - g, s) for g, s in w.letters), w.fulltwist)
    return BraidWord(tuple((g, -s) for g, s in w.letters), -w.fulltwist)


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaldwinClass:
    """Tagged union over the three families; kind is 1, 2, 3 or 0 (none).
    `moves`, the twist_search path that realised it, is not compared."""
    kind: int
    d: int = 0
    a: tuple = ()
    m: int = 0
    moves: tuple = field(default=(), compare=False, repr=False)

    def to_json(self):
        if self.kind == 1:
            return {"type": 1, "d": self.d, "a": list(self.a)}
        if self.kind == 2:
            return {"type": 2, "d": self.d, "m": self.m}
        if self.kind == 3:
            return {"type": 3, "d": self.d, "m": self.m}
        return {"type": None}


NOT_IN_FAMILY = BaldwinClass(0)


def _cyclic_reduced(letters):
    letters = reduce_letters(letters)
    while letters and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        letters = reduce_letters(letters[1:-1])
    return letters


def _find_twists(letters):
    """All cyclic occurrences of 6-letter spellings of h^{±1}.

    Yields (rotation, sign) pairs such that rotating by `rotation` puts the
    block at the front, in a fixed deterministic order.
    """
    nn = len(letters)
    if nn < 6:
        return
    doubled = letters + letters
    for sign, pats in ((1, TWIST_POS), (-1, TWIST_NEG)):
        for pat in pats:
            for i in range(nn):
                if doubled[i:i + 6] == pat:
                    yield i, sign


def twist_search(letters, cap=4096):
    """Reachable (letters, dd, moves) states under cyclic cancellation and
    twist extraction, breadth first.

    Cancellation can destroy a spelled-out twist and extraction can block a
    cancellation, so both orders are explored; states are deduplicated and
    the listing order is deterministic.  `moves` replays from the freely
    reduced input.
    """
    start = reduce_letters(letters)
    states = [(start, 0, ())]
    seen = {(start, 0)}
    i = 0
    while i < len(states) and len(states) < cap:
        cur, dd, moves = states[i]
        i += 1
        succs = []
        if cur and cur[0][0] == cur[-1][0] and cur[0][1] == -cur[-1][1]:
            succs.append((reduce_letters(cur[1:] + cur[:1]), dd,
                          moves + (("rotate", 1), ("reduce",))))
        for rot, sign in _find_twists(cur):
            rotated = cur[rot:] + cur[:rot]
            step = ((("rotate", rot),) if rot else ()) + \
                (("extract_h", sign), ("reduce",))
            succs.append((reduce_letters(rotated[6:]), dd + sign, moves + step))
        for nxt in succs:
            key = (nxt[0], nxt[1])
            if key not in seen:
                seen.add(key)
                states.append(nxt)
    return states


def _runs(letters):
    """Run-length encoding [(gen, signed length), ...] of a letter list."""
    runs = []
    for g, s in letters:
        if runs and runs[-1][0] == g and runs[-1][1] * s > 0:
            runs[-1][1] += s
        else:
            runs.append([g, s])
    return [(g, e) for g, e in runs]


def _type1_units(letters):
    """Cyclic decomposition s1 s2^-a1 ... s1 s2^-an; None if wrong shape."""
    if not letters:
        return None
    if any((g, s) not in (S1, S2I) for g, s in letters):
        return None
    if not any(l == S1 for l in letters) or not any(l == S2I for l in letters):
        return None
    start = next(i for i, l in enumerate(letters) if l == S1)
    rot = letters[start:] + letters[:start]
    a = []
    for g, s in rot:
        if g == 1:
            a.append(0)
        else:
            a[-1] += 1
    return tuple(a)


def _canonical_rotation(seq):
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _match_state(letters, d):
    """Family shape of one residual word, or None."""
    units = _type1_units(letters)
    if units is not None and d in (-1, 0, 1):
        return BaldwinClass(1, d=d, a=_canonical_rotation(units))
    if all(g == 2 for g, _ in letters) and d in (-1, 1):
        return BaldwinClass(2, d=d, m=sum(s for _, s in letters))
    neg2 = [l for l in letters if l == S2I]
    neg1 = [l for l in letters if l == S1I]
    if len(neg2) == 1 and 1 <= len(neg1) <= 3 \
            and len(neg1) + 1 == len(letters) and d in (-1, 0, 1, 2):
        return BaldwinClass(3, d=d, m=-len(neg1))
    return None


def classify_baldwin(w):
    """Family membership up to free/cyclic reduction and twist extraction.

    All extraction/cancellation orders are searched; among the states that
    match a family the least (kind, d, parameters) match is returned, which
    keeps the answer independent of the stored rotation.  The class carries
    the moves of the first search state giving that match, so a normalizer
    can replay the path instead of searching again.
    """
    key = lambda c: (c.kind, c.d, c.a, c.m)
    best = NOT_IN_FAMILY
    for cur, dd, moves in twist_search(w.letters):
        c = _match_state(cur, w.fulltwist + dd)
        if c is not None and (best.kind == 0 or key(c) < key(best)):
            best = replace(c, moves=moves)
    return best


# ---------------------------------------------------------------------------
# Move engine.  Moves act on (letters, fulltwist) with no implicit
# reduction, so transcripts replay exactly as recorded.
# ---------------------------------------------------------------------------

BRAID_WINDOWS = {
    (S1, S2, S1): (S2, S1, S2),
    (S2, S1, S2): (S1, S2, S1),
    (S1I, S2I, S1I): (S2I, S1I, S2I),
    (S2I, S1I, S2I): (S1I, S2I, S1I),
}


def apply_move(state, move):
    """One transcript move on a (letters tuple, fulltwist) state."""
    letters, d = state
    kind = move[0]
    if kind == "rotate":
        k = move[1] % max(1, len(letters))
        return letters[k:] + letters[:k], d
    if kind == "reduce":
        return reduce_letters(letters), d
    if kind == "insert":
        _, at, (g, s) = move
        pair = ((g, s), (g, -s))
        return letters[:at] + pair + letters[at:], d
    if kind == "braid_rel":
        at = move[1]
        window = letters[at:at + 3]
        if window not in BRAID_WINDOWS:
            raise NormalizationError("no braid relation window at %d" % at)
        return letters[:at] + BRAID_WINDOWS[window] + letters[at + 3:], d
    if kind == "expand_h":
        _, sign, phase = move
        if d * sign <= 0:
            raise NormalizationError("no twist of sign %d to expand" % sign)
        block = (TWIST_POS if sign > 0 else TWIST_NEG)[phase]
        return block + letters, d - sign
    if kind == "extract_h":
        sign = move[1]
        for block in (TWIST_POS if sign > 0 else TWIST_NEG):
            if letters[:6] == block:
                return letters[6:], d + sign
        raise NormalizationError("no twist block at the front")
    if kind == "mirror":
        return tuple((g, -s) for g, s in letters), -d
    if kind == "exchange":
        return tuple((3 - g, s) for g, s in letters), d
    raise NormalizationError("unknown move %r" % (kind,))


def replay_moves(w, moves):
    """Replay a transcript from a BraidWord; returns the final BraidWord.

    Checks the exponent-sum bookkeeping at every step: each move preserves
    it except mirror, which negates it.
    """
    state = (w.letters, w.fulltwist)
    exp = exponent_sum(w)
    for move in moves:
        state = apply_move(state, move)
        got = sum(s for _, s in state[0]) + 6 * state[1]
        want = -exp if move[0] == "mirror" else exp
        if got != want:
            raise NormalizationError("exponent sum broken by %r" % (move,))
        exp = got
    return BraidWord(reduce_letters(state[0]), state[1])


def words_cyclically_equal(w1, w2):
    """Equal up to free reduction and rotation (same fulltwist)."""
    if w1.fulltwist != w2.fulltwist:
        return False
    a = _cyclic_reduced(w1.letters)
    b = _cyclic_reduced(w2.letters)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(a[i:] + a[:i] == b for i in range(len(a)))


# ---------------------------------------------------------------------------
# Normalization outcomes.
# ---------------------------------------------------------------------------

@dataclass
class CycleForm:
    m: int
    a: tuple
    b: tuple
    word: BraidWord
    transcript: list
    mirrored: bool = False
    notes: tuple = ()

    kind = "cycle"

    def to_json(self):
        return {"outcome": "cycle", "m": self.m, "a": list(self.a), "b": list(self.b),
                "word": format_braid(self.word), "mirrored": self.mirrored,
                "moves": [list(m) for m in self.transcript], "notes": list(self.notes)}


@dataclass
class TorusBranchSet:
    q: int
    word: BraidWord
    transcript: list
    notes: tuple = ()

    kind = "torus"
    p = 2

    def to_json(self):
        return {"outcome": "torus", "p": 2, "q": self.q,
                "word": format_braid(self.word),
                "moves": [list(m) for m in self.transcript], "notes": list(self.notes)}


@dataclass
class ConnectedSumBranchSet:
    q1: int
    q2: int
    word: BraidWord
    transcript: list
    notes: tuple = ()

    kind = "connected_sum"

    def to_json(self):
        return {"outcome": "connected_sum", "factors": [[2, self.q1], [2, self.q2]],
                "word": format_braid(self.word),
                "moves": [list(m) for m in self.transcript], "notes": list(self.notes)}


class _Mover:
    """Accumulates moves while maintaining the current raw state."""

    def __init__(self, w):
        self.state = (w.letters, w.fulltwist)
        self.moves = []

    def do(self, *move):
        self.state = apply_move(self.state, move)
        self.moves.append(move)

    @property
    def letters(self):
        return self.state[0]


def _rotate_to_s1_run(mv):
    """Rotate so the word starts with an s1 run preceded cyclically by s2^-1."""
    letters = mv.letters
    nn = len(letters)
    for i in range(nn):
        if letters[i] == S1 and letters[i - 1] == S2I:
            if i:
                mv.do("rotate", i)
            return
    raise NormalizationError("no s1 run bounded by s2^-1 blocks")


def _prepare_type1(w, want_d):
    """Shared front end: classify, then replay the extraction moves the
    class carries, leaving the rotated unit form."""
    c = classify_baldwin(w)
    if c.kind != 1 or c.d != want_d:
        raise NormalizationError(
            "normalizer expects a family (1) braid with d = %d, got %s" % (want_d, c.to_json()))
    mv = _Mover(w)
    for move in c.moves:
        mv.do(*move)
    return mv


def _cyclic_runs(letters):
    """Run-length encoding of the cyclic word (seam runs merged)."""
    runs = _runs(letters)
    if len(runs) >= 2 and runs[0][0] == runs[-1][0] and runs[0][1] * runs[-1][1] > 0:
        runs = runs[1:-1] + [(runs[0][0], runs[0][1] + runs[-1][1])]
    return runs


def _parse_cycle_word(letters):
    """Cyclic word s2^M s1^{A0} s2^{-B1} ... s2^{-Bs} s1^{As} -> (M, A, B).

    Expects exactly one positive s2 run and positive s1 runs throughout.
    """
    runs = _cyclic_runs(letters)
    pos2 = [i for i, (g, e) in enumerate(runs) if g == 2 and e > 0]
    if len(pos2) != 1:
        return None
    runs = runs[pos2[0]:] + runs[:pos2[0]]
    M = runs[0][1]
    A, B = [], []
    for g, e in runs[1:]:
        if g == 1:
            if e <= 0 or len(A) != len(B):
                return None
            A.append(e)
        else:
            if e >= 0 or len(A) != len(B) + 1:
                return None
            B.append(-e)
    if not B or len(A) != len(B) + 1:
        return None
    return M, tuple(A), tuple(B)


def _outcome_from_final(mv, mirrored=False, notes=()):
    """Read the final cyclic word into a cycle form or a split branch set."""
    final = BraidWord(mv.letters, mv.state[1])
    reduced = _cyclic_reduced(mv.letters)
    runs = _cyclic_runs(reduced)
    if len(runs) == 2 and {runs[0][0], runs[1][0]} == {1, 2} \
            and runs[0][1] > 0 and runs[1][1] > 0:
        e2 = runs[0][1] if runs[0][0] == 2 else runs[1][1]
        e1 = runs[0][1] if runs[0][0] == 1 else runs[1][1]
        # a single letter of the other generator destabilizes away
        if e2 == 1:
            return TorusBranchSet(e1, final, mv.moves, notes=notes)
        if e1 == 1:
            return TorusBranchSet(e2, final, mv.moves, notes=notes)
        return ConnectedSumBranchSet(e2, e1, final, mv.moves, notes=notes)
    parsed = _parse_cycle_word(reduced)
    if parsed is None:
        raise NormalizationError("final word is not in cycle form: %s" % format_braid(final))
    M, A, B = parsed
    return CycleForm(M, A, B, final, mv.moves, mirrored=mirrored, notes=notes)


def normalize_type1_d1(w):
    """Case d = 1: conjugate into sigma2^m s1^{a0} s2^{-b1} ... s1^{an}, m > 2.

    Replays the chain h = s2 s1^2 s2 s1^2, absorbs s1^2 into the leading s1
    run, then commutes the s2 through it with the braid relation; the first
    and last s2^- blocks each lose one crossing on the way.
    """
    mv = _prepare_type1(w, 1)
    _rotate_to_s1_run(mv)
    mv.do("expand_h", 1, 0)             # (s2 s1)^3 in front
    mv.do("braid_rel", 2)               # -> s2 s1^2 s2 s1^2
    mv.do("rotate", 1)
    mv.do("reduce")                     # s1^2 s2 s1^m s2^-(q1) ... s2^-(qr - 1)
    letters = mv.letters
    if S2I not in letters:
        # r = 1, q = 1: the whole tail cancelled; rotate to s2 s1^{m+2}
        mv.do("rotate", 2)
        return _outcome_from_final(mv)
    m = 0
    i = 3
    while i < len(letters) and letters[i] == S1:
        m += 1
        i += 1
    # commute: s2 s1^m s2^-1 -> s1^-1 s2^m s1, one braid move per crossing
    for j in range(1, m + 1):
        mv.do("insert", j + 1, S1I)
        mv.do("braid_rel", j + 2)
        mv.do("reduce")
    mv.do("rotate", 1)
    out = _outcome_from_final(mv)
    if out.kind == "cycle" and out.m <= 2:
        raise NormalizationError("d=1 cycle form must have m > 2")
    return out


def normalize_type1_dm1(w):
    """Case d = -1: reduce to s1^-1 s2^-(a1+2) s1 s2^-a2 ... s1 s2^-(an+2),
    then exchange + mirror into the cycle form with m = 1.

    For n = 1 the chain ends in s1^-1 s2^-(a1+4); the branch set is reported
    as T(2, a1) following the source statement, with the derived exponent
    recorded as a note since the two disagree.
    """
    mv = _prepare_type1(w, -1)
    letters = mv.letters
    start = next(i for i, l in enumerate(letters) if l == S1)
    if start:
        mv.do("rotate", start)
    n = sum(1 for l in mv.letters if l == S1)
    a1 = 0
    for g, s in mv.letters[1:]:
        if g == 1:
            break
        a1 += 1
    mv.do("expand_h", -1, 1)            # (s2^-1 s1^-1)^3 in front
    mv.do("reduce")                     # trailing s1^-1 eats the leading s1
    mv.do("rotate", 1)
    mv.do("reduce")
    mv.do("braid_rel", 0)               # s1^- s2^- s1^- -> s2^- s1^- s2^-
    mv.do("rotate", 1)
    mv.do("reduce")
    if n == 1:
        final = BraidWord(mv.letters, mv.state[1])
        note = ("derived word is %s; branch set reported as T(2, a1) = T(2, %d) "
                "per the source statement, determinant of the diagram is %d"
                % (format_braid(final), a1, a1 + 4))
        return TorusBranchSet(a1, final, mv.moves, notes=(note,))
    mv.do("exchange")
    mv.do("mirror")
    out = _outcome_from_final(mv, mirrored=True)
    if out.kind == "cycle":
        if out.m != 1 or out.a[0] <= 1 or out.a[-1] <= 1:
            raise NormalizationError("d=-1 cycle form must have m=1, a0 > 1, an > 1")
    return out


def normalize_type1(w):
    c = classify_baldwin(w)
    if c.kind != 1:
        raise NormalizationError("not a family (1) braid")
    if c.d == 1:
        return normalize_type1_d1(w)
    if c.d == -1:
        return normalize_type1_dm1(w)
    raise NormalizationError("d = 0 braids are alternating; nothing to normalize")
