"""Three-strand braid words: parsing, reduction, classification, normalization.

A word is a sequence of signed Artin letters s1/s2 plus a symbolic power of
the central full twist h = (s2 s1)^3.  Classification into the three
families and the two normalization chains work only up to free reduction,
cyclic permutation, the braid relation, and symbolic h bookkeeping; no
general conjugacy machinery is used.  Normalizations are emitted as move
transcripts that replay mechanically.

The twist search and the cyclic comparison work on a compact encoding: one
character per letter, `a A b B` for s1, s1^-1, s2, s2^-1, so inversion is
`str.swapcase` and a letter pattern is a substring.  Both ends of a slice
of a freely reduced word are freely reduced, so the free reduction of two
such slices joined is cancellation at the seam alone, which `_join` does
without rescanning either side.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .rewrite import (FreeWord, expand_runs, least_rotation, reduce_letters,
                      reduce_runs, run_lengths)


class BraidError(Exception):
    pass


class NormalizationError(BraidError):
    pass


MAX_LETTERS = 10 ** 6   # longest word parse_braid expands, each h six letters
MAX_TWIST_STATES = 4096  # cyclic classes twist_search lists before it stops
ROTATION_STARTS = 64     # least-letter starts _least_rotation_code compares

# letters are (generator, sign) with generator 1 or 2 and sign +1/-1
S1, S1I, S2, S2I = (1, 1), (1, -1), (2, 1), (2, -1)

# the four admissible spellings of h^{+1} / h^{-1}
TWIST_POS = (
    (S2, S1, S2, S1, S2, S1),   # (s2 s1)^3, the canonical expansion
    (S1, S2, S1, S2, S1, S2),   # (s1 s2)^3
)
TWIST_NEG = tuple(tuple((g, -s) for g, s in reversed(p)) for p in TWIST_POS)

_CODE = {S1: "a", S1I: "A", S2: "b", S2I: "B"}
_LETTER = {c: l for l, c in _CODE.items()}


def _encode(letters):
    return "".join(map(_CODE.__getitem__, letters))


def _decode(code):
    return tuple(map(_LETTER.__getitem__, code))


def _join(left, right):
    """Free reduction of left + right for freely reduced encoded words:
    only letters meeting at the seam can cancel."""
    k, top = 0, min(len(left), len(right))
    while k < top and left[-1 - k] == right[k].swapcase():
        k += 1
    return left[:len(left) - k] + right[k:]


def _least_rotation_code(word):
    """`least_rotation` of an encoded word.  It starts at a least letter,
    so only those rotations are compared, as slices; a word with more than
    ROTATION_STARTS of them is the power of its least rotation's root, or
    goes to Duval's loop, so the cost stays linear."""
    n = len(word)
    c = "A" if "A" in word else "B" if "B" in word else "a" if "a" in word else "b"
    ring = word + word
    if word.count(c) > ROTATION_STARTS:
        period = ring.find(word, 1)
        if period < n:
            return _least_rotation_code(word[:period]) * (n // period)
        return least_rotation(word)
    best, i = word, word.find(c)
    while i >= 0:
        best = min(best, ring[i:i + n])
        i = word.find(c, i + 1)
    return best


# sign, then (encoded spelling, pattern of its row) in TWIST_POS / TWIST_NEG order
_TWIST_CODES = tuple(
    (sign, tuple((code, re.compile("(?:%s)+" % code[:2])) for code in map(_encode, pats)))
    for sign, pats in ((1, TWIST_POS), (-1, TWIST_NEG)))


class BraidWord(namedtuple("BraidWord", "letters fulltwist")):
    """Freely reduced letters plus the symbolic full-twist power d."""
    __slots__ = ()

    def __new__(cls, letters=(), fulltwist=0):
        for g, s in letters:
            if g not in (1, 2) or s not in (1, -1):
                raise BraidError("bad letter %r" % ((g, s),))
        return super().__new__(cls, reduce_letters(letters), fulltwist)

    @classmethod
    def from_runs(cls, runs, fulltwist=0):
        """The word of [(generator, signed exponent), ...] runs, reduced run
        by run and built a run at a time."""
        if any(g not in (1, 2) for g, _ in runs):
            raise BraidError("bad generator in %r" % (runs,))
        return super().__new__(cls, expand_runs(reduce_runs(runs)), fulltwist)

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
    return BraidWord.from_runs(runs, d)


def format_braid(w):
    """Canonical string: h power first, then run-length letters."""
    parts = []
    if w.fulltwist == 1:
        parts.append("h")
    elif w.fulltwist:
        parts.append("h^%d" % w.fulltwist)
    parts += ["s%d" % g if e == 1 else "s%d^%d" % (g, e) for g, e in run_lengths(w.letters)]
    return " ".join(parts) if parts else "1"


def expand_fulltwist(w):
    """Replace each symbolic h by (s2 s1)^3 (inverse for negative powers)."""
    d = w.fulltwist
    if not d:
        return w
    block = TWIST_POS[0] if d > 0 else TWIST_NEG[0]
    return BraidWord.from_runs(run_lengths(block * abs(d) + w.letters))


def exponent_sum(w):
    return sum(s for _, s in w.letters) + 6 * w.fulltwist


def mirror(w, exchange=False):
    """Invert every letter and negate d; with exchange=True swap s1 <-> s2
    instead (an inner automorphism, so the closure is unchanged)."""
    if exchange:
        return BraidWord(tuple((3 - g, s) for g, s in w.letters), w.fulltwist)
    return BraidWord(tuple((g, -s) for g, s in w.letters), -w.fulltwist)


def sl2_matrix(w):
    """((a, b), (c, d)) = w under s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]],
    h -> -I; |2 - a - d| is the determinant of the closure."""
    a, b, c, d = (-1, 0, 0, -1) if w.fulltwist % 2 else (1, 0, 0, 1)
    for g, k in run_lengths(w.letters):     # each run is one column operation
        if g == 1:
            b, d = b + k * a, d + k * c
        else:
            a, c = a - k * b, c - k * d
    return (a, b), (c, d)


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

class BaldwinClass(namedtuple("BaldwinClass", "kind d a m stopped_at moves",
                              defaults=(0, (), 0, 0, ()))):
    """Tagged union over the three families; kind is 1, 2, 3 or 0 (none).
    `moves`, the twist_search path that realised it, is not compared.  The
    family (1) normalizers replay it, and so does the finite route, which
    checks that it reaches the member the class spells.  A kind 0 class
    whose search listed MAX_TWIST_STATES cyclic classes holds that cap in
    `stopped_at`: it is not known to lie outside the families."""
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, BaldwinClass) and self[:5] == other[:5]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:5])

    def to_json(self):
        if self.kind == 1:
            return {"type": 1, "d": self.d, "a": list(self.a)}
        if self.kind == 2:
            return {"type": 2, "d": self.d, "m": self.m}
        if self.kind == 3:
            return {"type": 3, "d": self.d, "m": self.m}
        if self.stopped_at:
            return {"type": None, "stopped_at": self.stopped_at}
        return {"type": None}


NOT_IN_FAMILY = BaldwinClass(0)


def twist_search(letters):
    """Reachable (letters, dd, moves) states under cyclic cancellation and
    twist extraction, breadth first, one state per cyclic word and dd.

    Cancellation can destroy a spelled-out twist and extraction can block a
    cancellation, so both orders are explored.  The listing order is
    deterministic: the cancellation first, then each cyclic occurrence of a
    twist spelling by sign, spelling and offset.  `moves` replays from the
    freely reduced input.  The listing stops once it holds MAX_TWIST_STATES
    states, that is, cyclic classes.

    A state is listed only if no rotation of it was listed before: it keeps
    the spelling and moves of the first rotation found.  Nothing is lost.
    A successor of a cyclically reduced state is the cyclic word with one
    twist block removed, read from just after the block, so every rotation
    of the state has the same successors and none has a cancellation
    successor; a freely reduced word whose ends cancel has no other freely
    reduced rotation; and `_match_state` gives the same answer on every
    rotation.

    States are searched encoded (see the module docstring).  Rotating an
    occurrence at offset rot to the front and dropping it leaves
    cur[rot+6:] + cur[:rot], whose reduction is `_join` of the two slices;
    their seam pairs cur[-1] with cur[0], so it cancels only when the ends
    of cur do.  An occurrence across the end leaves the plain slice
    cur[rot+6-n:rot], and the cancellation successor of cur is cur[1:-1].
    When nothing cancels, a successor is looked up by the block deleted in
    place, cur[:rot] + cur[rot+6:], which is one of its rotations.  Every
    spelling is its first two letters three times, so deleting any block
    of a row of them leaves that same string: one match of the row's
    pattern takes the search past the row's last block inside cur, and a
    row costs one key, not one per twist.  Elsewhere an occurrence that
    leaves the string the one before it left is skipped.  Moves are built
    only for a new state, whose key is its least rotation
    (`_least_rotation_code`).
    """
    start = _encode(reduce_letters(letters))
    states = [(start, 0, ())]
    seen = set()    # (least rotation, dd) of each listed state

    def new_class(word, dd):
        if not seen:        # the start's key is needed from the first successor on
            seen.add((_least_rotation_code(start), 0))
        key = (_least_rotation_code(word), dd)
        if key in seen:
            return False
        seen.add(key)
        return True

    i = 0
    while i < len(states) and len(states) < MAX_TWIST_STATES:
        cur, dd, moves = states[i]
        i += 1
        nn = len(cur)
        ends_cancel = nn > 0 and cur[0] == cur[-1].swapcase()
        if ends_cancel and new_class(cur[1:-1], dd):
            states.append((cur[1:-1], dd, moves + (("rotate", 1), ("reduce",))))
        if nn < 6:
            continue
        ring = cur + cur[:5]
        for sign, pats in _TWIST_CODES:
            for pat, row in pats:
                rot, last = ring.find(pat), None
                while 0 <= rot < nn:
                    after = rot + 1
                    if rot + 6 > nn:
                        rest = spot = cur[rot + 6 - nn:rot]
                    elif ends_cancel:
                        rest = spot = _join(cur[rot + 6:], cur[:rot])
                    else:
                        rest = cur[rot + 6:] + cur[:rot]
                        spot = cur[:rot] + cur[rot + 6:]
                        after = row.match(cur, rot).end() - 5
                    if spot != last and new_class(spot, dd + sign):
                        step = (("extract_h", sign), ("reduce",))
                        if rot:
                            step = (("rotate", rot),) + step
                        states.append((rest, dd + sign, moves + step))
                    rot, last = ring.find(pat, after), spot
    return [(_decode(code), dd, moves) for code, dd, moves in states]


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


def _match_state(letters, d):
    """Family shape of one residual word, or None."""
    units = _type1_units(letters)
    if units is not None and d in (-1, 0, 1):
        return BaldwinClass(1, d=d, a=least_rotation(units))
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
    match a family the least (kind, d, parameters) match is returned, so
    every rotation of a cyclically reduced word gets the same class.  A word
    whose ends cancel need not: s1 s2 s1 s2 s1 s2 s1^-1 s2^-1 s1^-1 is
    family (3) with d = 1, m = -2, but in its rotation
    s2 s1 s2 s1 s2 s1^-1 s2^-1 s1^-1 s1 the twist is spelled across letters
    that cancel, and no family matches.  The class carries
    the moves of the first search state giving that match, so a normalizer
    can replay the path instead of searching again.
    """
    key = lambda c: (c.kind, c.d, c.a, c.m)
    best = NOT_IN_FAMILY
    states = twist_search(w.letters)
    for cur, dd, moves in states:
        c = _match_state(cur, w.fulltwist + dd)
        if c is not None and (best.kind == 0 or key(c) < key(best)):
            best, best_moves = c, moves
    if best.kind:
        return best._replace(moves=best_moves)
    if len(states) >= MAX_TWIST_STATES:
        return BaldwinClass(0, stopped_at=MAX_TWIST_STATES)
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
    return BraidWord.from_runs(run_lengths(state[0]), state[1])


def words_cyclically_equal(w1, w2):
    """Equal up to free reduction and rotation (same fulltwist)."""
    if w1.fulltwist != w2.fulltwist:
        return False
    a = _encode(FreeWord._reduced(w1.letters).cyclic_reduce().letters)
    b = _encode(FreeWord._reduced(w2.letters).cyclic_reduce().letters)
    return len(a) == len(b) and b in a + a


# ---------------------------------------------------------------------------
# Normalization outcomes.
# ---------------------------------------------------------------------------

class CycleForm:
    kind = "cycle"

    def __init__(self, m, a, b, word, transcript, mirrored=False, notes=()):
        self.m, self.a, self.b, self.word = m, a, b, word
        self.transcript, self.mirrored, self.notes = transcript, mirrored, notes

    def to_json(self):
        return {"outcome": "cycle", "m": self.m, "a": list(self.a), "b": list(self.b),
                "word": format_braid(self.word), "mirrored": self.mirrored,
                "moves": [list(m) for m in self.transcript], "notes": list(self.notes)}


class TorusBranchSet:
    kind = "torus"
    p = 2

    def __init__(self, q, word, transcript, notes=(), mirrored=False):
        self.q, self.word, self.transcript, self.notes = q, word, transcript, notes
        self.mirrored = mirrored    # left out of to_json; the mirror move shows it

    def to_json(self):
        return {"outcome": "torus", "p": 2, "q": self.q,
                "word": format_braid(self.word),
                "moves": [list(m) for m in self.transcript], "notes": list(self.notes)}


class ConnectedSumBranchSet:
    kind = "connected_sum"

    def __init__(self, q1, q2, word, transcript, notes=()):
        self.q1, self.q2, self.word = q1, q2, word
        self.transcript, self.notes = transcript, notes

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


def _prepare_type1(w, cls, want_d):
    """Shared front end: replay the extraction moves of w's class `cls`,
    then check that they reached a unit form of that class.  The word
    reached has no twist left, so its classification lists one state."""
    if cls.kind != 1 or cls.d != want_d:
        raise NormalizationError(
            "normalizer expects a family (1) braid with d = %d, got %s" % (want_d, cls.to_json()))
    mv = _Mover(w)
    for move in cls.moves:
        mv.do(*move)
    reached = BraidWord(mv.letters, mv.state[1])
    got = classify_baldwin(reached)
    if got != cls or got.moves:
        raise NormalizationError("the class moves reach %s, not a unit form of %s"
                                 % (format_braid(reached), cls.to_json()))
    return mv


def _cyclic_runs(letters):
    """Run-length encoding of the cyclic word (seam runs merged)."""
    runs = run_lengths(letters)
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


def _outcome_from_final(mv, mirrored=False):
    """Read the final cyclic word into a cycle form or a split branch set."""
    final = BraidWord(mv.letters, mv.state[1])
    reduced = FreeWord(mv.letters).cyclic_reduce().letters
    runs = _cyclic_runs(reduced)
    if len(runs) == 2 and {runs[0][0], runs[1][0]} == {1, 2} \
            and runs[0][1] > 0 and runs[1][1] > 0:
        e2 = runs[0][1] if runs[0][0] == 2 else runs[1][1]
        e1 = runs[0][1] if runs[0][0] == 1 else runs[1][1]
        # a single letter of the other generator destabilizes away
        if e2 == 1:
            return TorusBranchSet(e1, final, mv.moves, mirrored=mirrored)
        if e1 == 1:
            return TorusBranchSet(e2, final, mv.moves, mirrored=mirrored)
        return ConnectedSumBranchSet(e2, e1, final, mv.moves)
    parsed = _parse_cycle_word(reduced)
    if parsed is None:
        raise NormalizationError("final word is not in cycle form: %s" % format_braid(final))
    M, A, B = parsed
    return CycleForm(M, A, B, final, mv.moves, mirrored=mirrored)


def normalize_type1_d1(w, cls):
    """Case d = 1, with `cls` the class of w: conjugate into sigma2^m s1^{a0} s2^{-b1} ... s1^{an}, m > 2.

    Replays the chain h = s2 s1^2 s2 s1^2, absorbs s1^2 into the leading s1
    run, then commutes the s2 through it with the braid relation; the first
    and last s2^- blocks each lose one crossing on the way.
    """
    mv = _prepare_type1(w, cls, 1)
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


def normalize_type1_dm1(w, cls):
    """Case d = -1, with `cls` the class of w: reduce to s1^-1 s2^-(a1+2) s1 s2^-a2 ... s1 s2^-(an+2),
    then exchange + mirror into the cycle form with m = 1.

    For n = 1 the chain ends in s1^-1 s2^-(a1+4), which exchange + mirror
    turn into s2 s1^(a1+4): the branch set is T(2, a1+4), and the report
    notes the erratum in the source, which states T(2, a1).
    """
    mv = _prepare_type1(w, cls, -1)
    letters = mv.letters
    start = next(i for i, l in enumerate(letters) if l == S1)
    if start:
        mv.do("rotate", start)
    mv.do("expand_h", -1, 1)            # (s2^-1 s1^-1)^3 in front
    mv.do("reduce")                     # trailing s1^-1 eats the leading s1
    mv.do("rotate", 1)
    mv.do("reduce")
    mv.do("braid_rel", 0)               # s1^- s2^- s1^- -> s2^- s1^- s2^-
    mv.do("rotate", 1)
    mv.do("reduce")
    mv.do("exchange")
    mv.do("mirror")
    out = _outcome_from_final(mv, mirrored=True)
    if out.kind == "torus":             # n = 1
        out.notes = ("erratum: the source states the branch set T(2, a1) = "
                     "T(2, %d); the derived word gives T(2, a1+4)" % (out.q - 4),)
    elif out.kind == "cycle":
        if out.m != 1 or out.a[0] <= 1 or out.a[-1] <= 1:
            raise NormalizationError("d=-1 cycle form must have m=1, a0 > 1, an > 1")
    return out

