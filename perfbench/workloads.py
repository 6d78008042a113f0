"""Seeded workload generators for the braidcover benchmark.

Each generator turns a seed into a list of `Op`s.  An op carries the grid
line the program receives and, for the oracle only, what the benchmark
knows about it: the family it was drawn from and the braid it spells, kept
as a letter tuple built here, independently of `braidcover.braid`.

Letters are (generator, sign) pairs with generator 1 or 2, as in
`tests/b3oracle.py`; `Word` has the two fields that module reads.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import namedtuple

Word = namedtuple("Word", "letters fulltwist")

# expect: {"family": 1, "d": d, "a": a} | {"family": 2, "d": d, "m": m}
#       | {"family": 3, "d": d, "m": m} | {"family": "tuple", "m", "a", "b"}
# word: the Word the line spells, or None for (m; a; b) tuple lines.
Op = namedtuple("Op", "line expect word")

S1, S1I, S2, S2I = (1, 1), (1, -1), (2, 1), (2, -1)
TWIST_POS = ((S2, S1) * 3, (S1, S2) * 3)          # the two spellings of h
TWIST_NEG = tuple(tuple((g, -s) for g, s in reversed(t)) for t in TWIST_POS)

# n = 6 takes ten times n = 5; n = 7 (about 3 s) and n = 8 (about 26 s)
# would leave a 30 s run with a handful of passes
LADDER_TOP = 6
FINITE_M = tuple(range(3, 90, 6))
FINITE_TOP = 120
# k = 14 takes about 2.3 s for family (1), which left a 30 s run five
# passes and too few samples for a tail percentile that keeps ten above it
TWISTED_K = (4, 6, 8, 10, 12)
MIX_MEMBERS = 1200
MIX_TUPLES = 150


def reduce_letters(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def cyclically_reduced(letters):
    """True when the word has no free or cyclic cancellation."""
    return reduce_letters(letters) == tuple(letters) and not (
        len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]))


def inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def family_letters(expect):
    """Letters of the canonical family word h^d * (these letters)."""
    f = expect["family"]
    if f == 1:
        out = []
        for a in expect["a"]:
            out += [S1] + [S2I] * a
        return tuple(out)
    if f == 2:
        m = expect["m"]
        return ((2, 1 if m > 0 else -1),) * abs(m)
    if f == 3:
        return (S1I,) * -expect["m"] + (S2I,)
    raise ValueError("no braid word for family %r" % (f,))


def format_line(letters, d, h_at=0):
    """Run-length tokens, with the h^d token after `h_at` tokens."""
    tokens = []
    run = None
    for g, s in tuple(letters) + ((None, 0),):
        if run and run[0] == g and run[1] * s > 0:
            run[1] += s
            continue
        if run:
            tokens.append("s%d" % run[0] if run[1] == 1 else "s%d^%d" % tuple(run))
        run = [g, s] if g else None
    if d:
        tokens.insert(min(h_at, len(tokens)), "h" if d == 1 else "h^%d" % d)
    return " ".join(tokens) if tokens else "1"


def member(expect, letters=None, d=None, h_at=0):
    letters = family_letters(expect) if letters is None else tuple(letters)
    d = expect["d"] if d is None else d
    return Op(format_line(letters, d, h_at), expect, Word(letters, d))


def ladder(rng):
    """h (s1 s2^-2)^n and h^-1 (s1 s2^-2)^n for n = 1..LADDER_TOP; the seed
    sets the order and where the h token sits."""
    ops = [member({"family": 1, "d": d, "a": (2,) * n}, h_at=rng.randint(0, 2 * n))
           for n in range(1, LADDER_TOP + 1) for d in (1, -1)]
    rng.shuffle(ops)
    return ops


def finite(rng):
    """h^d s2^m for all four signs of (d, m) at each |m| in FINITE_M and
    h s2^FINITE_TOP, the three exceptional family-(3) braids, two seeded
    family-(3) members and the coset-cap case.

    The |m| are fixed because coset enumeration time grows about as
    |m|^2.5: a seeded |m| moved the pass time between seeds more than the
    host's own drift does.  Many distinct |m| keep the latency percentiles
    between ops of similar cost rather than inside a few repeated ones."""
    ops = []
    for k in FINITE_M:
        for d in (1, -1):
            for sign in (1, -1):
                ops.append(member({"family": 2, "d": d, "m": sign * k},
                                  h_at=rng.randint(0, 1)))
    ops.append(member({"family": 2, "d": 1, "m": FINITE_TOP}, h_at=rng.randint(0, 1)))
    for m in (-1, -2, -3):
        ops.append(member({"family": 3, "d": 2, "m": m}))
    for _ in range(2):
        ops.append(member({"family": 3, "d": rng.choice((-1, 0, 1)),
                           "m": rng.choice((-1, -2, -3))}))
    # h^-1 s2^2: m = -2d gives an infinite group, so it runs to the coset cap
    ops.append(member({"family": 2, "d": -1, "m": 2}))
    rng.shuffle(ops)
    return ops


# mix draws its members from the repo's determinant-consistency grid
# (criterion 4 in tests/test_acceptance.py), in that grid's proportions:
# 16 family-(1) words for each d in -1, 0, 1 (n = 1..4 syllables, each
# a_i in 0..3, not all 0), the seven h^±1 s2^m words less h^-1 s2^2 (its
# m = -2d runs to the coset cap, which is left to finite), and its four
# family-(3) words.  Tuples come from the grid of criterion 1: n = 1..3,
# a and b in 1..3, m in 1..6, kept when the hypothesis holds (see
# _mix_tuples).
MIX_FAMILY1_SLOTS = 48
MIX_FAMILY2 = ((1, 1), (1, 2), (1, 3), (1, 4), (-1, 1), (-1, 3))      # (d, m)
MIX_FAMILY3 = ((2, -1), (1, -2), (0, -3), (-1, -1))                   # (d, m)
MIX_SLOTS = MIX_FAMILY1_SLOTS + len(MIX_FAMILY2) + len(MIX_FAMILY3)
# Not taken from the repo and not measured: the 8:1 split of members to
# tuples, and the share of the members each disguise step falls on.  An
# exchanged member is almost never decided, so its share sets
# decided_share; at a half the median latency sat where the fast
# Inconclusive ops give way to decided ones, and its IQR/median over five
# seeds was 0.36.
DISGUISE_SHARE = {"rotate": 0.5, "twist": 0.5, "pair": 0.5, "conjugate": 0.5,
                  "exchange": 0.25}


def _family_in_slot(rng, slot):
    """The grid word of one of the MIX_SLOTS slots; family-(1) slots draw
    a fresh word."""
    if slot < MIX_FAMILY1_SLOTS:
        n = rng.randint(1, 4)
        a = [rng.randint(0, 3) for _ in range(n)]
        if not any(a):
            a[rng.randrange(n)] = rng.randint(1, 3)
        return {"family": 1, "d": slot % 3 - 1, "a": tuple(a)}
    slot -= MIX_FAMILY1_SLOTS
    if slot < len(MIX_FAMILY2):
        d, m = MIX_FAMILY2[slot]
        return {"family": 2, "d": d, "m": m}
    d, m = MIX_FAMILY3[slot - len(MIX_FAMILY2)]
    return {"family": 3, "d": d, "m": m}


def _disguise(rng, expect, steps):
    """Rewrite a family word into an equal or conjugate braid by the named
    steps: rotate, spell out one twist (and each further one with
    probability 1/2), insert a cancelling pair, conjugate by a word of one
    or two letters, exchange s1 and s2.  Each step keeps the conjugacy
    class."""
    letters = list(family_letters(expect))
    d = expect["d"]
    if letters and "rotate" in steps:
        k = rng.randrange(len(letters))
        letters = letters[k:] + letters[:k]
    spell = "twist" in steps
    while d and spell:
        sign = 1 if d > 0 else -1
        block = rng.choice(TWIST_POS if sign > 0 else TWIST_NEG)
        at = rng.randint(0, len(letters))
        letters[at:at] = block
        d -= sign
        spell = rng.random() < 0.5
    if "pair" in steps:
        g, s = rng.choice((S1, S1I, S2, S2I))
        at = rng.randint(0, len(letters))
        letters[at:at] = [(g, s), (g, -s)]
    if "conjugate" in steps:
        c = tuple(rng.choice((S1, S1I, S2, S2I)) for _ in range(rng.randint(1, 2)))
        letters = list(c) + letters + list(inverse(c))
    if "exchange" in steps:
        letters = [(3 - g, s) for g, s in letters]
    return letters, d


def _tuple_grid():
    """The (m, a, b) of criterion 1 in its own order: _ab_grid(3) with m
    cycling through 1..6, kept where the hypothesis holds."""
    out = []
    ms = itertools.cycle(range(1, 7))
    for n in range(1, 4):
        for a in itertools.product(range(1, 4), repeat=n + 1):
            for b in itertools.product(range(1, 4), repeat=n):
                m = next(ms)
                if m > 1 or (a[0] > 1 and a[-1] > 1):
                    out.append((m, a, b))
    return out


def _mix_tuples():
    """MIX_TUPLES tuples at an even stride through the criterion-1 grid.

    They are the same for every seed, which only sets their order: their
    cost spans 1 to over 100 ms with the values of a and b, and the few
    dearest set the tail percentile; with drawn tuples the p99 of one pass
    ranged from 30 to 56 ms over four seeds."""
    grid = _tuple_grid()
    step = len(grid) // MIX_TUPLES
    ops = []
    for m, a, b in grid[::step][:MIX_TUPLES]:
        line = "(%d; %s; %s)" % (m, ",".join(map(str, a)), ",".join(map(str, b)))
        ops.append(Op(line, {"family": "tuple", "m": m, "a": a, "b": b}, None))
    return ops


def _deal(rng, n, share):
    """n flags, round(n * share) of them set, in seeded order."""
    flags = [i < round(n * share) for i in range(n)]
    rng.shuffle(flags)
    return flags


def mix(rng):
    """Short family members in disguise plus valid (m; a; b) tuples.

    The members fill the grid's slots in turn and each disguise step is
    dealt to an exact share of them, so the seed moves which words and where
    the steps fall, not how many of each there are: the exchange step, for
    one, decides whether the classifier recognises a member, and a drawn
    count moved decided_share and the median latency between seeds."""
    dealt = {step: _deal(rng, MIX_MEMBERS, share) for step, share in DISGUISE_SHARE.items()}
    ops = []
    for i in range(MIX_MEMBERS):
        expect = _family_in_slot(rng, i % MIX_SLOTS)
        steps = {step for step, flags in dealt.items() if flags[i]}
        letters, d = _disguise(rng, expect, steps)
        ntok = len(format_line(letters, 0).split())
        ops.append(member(expect, letters, d, h_at=rng.randint(0, ntok)))
    ops += _mix_tuples()
    rng.shuffle(ops)
    return ops


def _twisted_member(k, expect, spelling):
    """h^-k (k+1 spelled twists) body for d = +1, mirrored signs for d = -1.

    The body is rotated so that no letter cancels at either seam: the
    twists must stay spelled out."""
    sign = expect["d"]
    body = family_letters(expect)
    blocks = (TWIST_POS if sign > 0 else TWIST_NEG)[spelling] * (k + 1)
    for r in range(len(body)):
        letters = blocks + body[r:] + body[:r]
        if cyclically_reduced(letters):
            return letters, -sign * k
    raise ValueError("no seam-free rotation for %r" % (expect,))


def twisted(rng):
    """For each k in TWISTED_K one member of each family behind k+1
    spelled-out twists.  Signs and spellings alternate over k and the
    bodies are fixed: in trials each of them moved an op's time by up to
    20 %, so the seed only sets the order and where the h token sits."""
    ops = []
    for i, k in enumerate(TWISTED_K):
        for f, body in ((1, {"a": (1, 2)}), (2, {"m": 5}), (3, {"m": -2})):
            d = 1 if (i + f) % 2 else -1
            expect = dict(body, family=f, d=d)
            if f == 2:
                expect["m"] *= d
            letters, h = _twisted_member(k, expect, i % 2)
            ops.append(member(expect, letters, h, h_at=rng.randint(0, 6 * k)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"ladder": ladder, "finite": finite, "mix": mix, "twisted": twisted}

# The tail percentile of each workload: the highest of p99.9, p99, p90,
# p75 that keeps ten samples above it in a 30 s untraced run (samples per
# run: ladder 700 or more, finite 260, mix 6700, twisted about 120).  It
# is fixed, not picked per run, because a run's speed would move it: with
# 12 ops per pass, ladder's p99 is the h (s1 s2^-2)^6 rung (about 270 ms)
# and its p90 the h^-1 rung (about 140 ms).  On twisted's 15 ops per pass
# p90 falls in the middle of the second-dearest op's samples; p75, at the
# seam between two ops, one near twice the other, jumped between them.
TAIL_PERCENT = {"ladder": 90, "finite": 90, "mix": 99, "twisted": 90}


def generate(name, seed):
    """The ops of one workload; the same (name, seed) gives the same ops."""
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)))


def lines_digest(ops):
    """sha256 of the generated lines, newline separated."""
    return hashlib.sha256("\n".join(op.line for op in ops).encode()).hexdigest()
