import random

import pytest

from braidcover.braid import (BraidError, BraidWord, NormalizationError,
                              parse_braid, format_braid, expand_fulltwist,
                              cyclic_conjugate, exponent_sum, mirror,
                              classify_baldwin, normalize_type1_d1,
                              normalize_type1_dm1, normalize_type1,
                              replay_moves, words_cyclically_equal,
                              MAX_LETTERS, S1, S1I, S2, S2I)

from b3oracle import braids_equal, conjugacy_invariants


def test_parse_examples():
    w = parse_braid("h s1 s2^-2")
    assert w.fulltwist == 1
    assert w.letters == (S1, S2I, S2I)
    assert parse_braid("s1 s1^-1").letters == ()
    w = parse_braid("h^-1 s2^3")
    assert (w.fulltwist, w.letters) == (-1, (S2, S2, S2))


def test_parse_print_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(-2, 2)
        letters = []
        for _ in range(rng.randint(0, 12)):
            letters.append((rng.choice((1, 2)), rng.choice((1, -1))))
        w = BraidWord(tuple(letters), d)
        assert parse_braid(format_braid(w)) == w


def test_parse_errors():
    with pytest.raises(BraidError):
        parse_braid("zzz")
    with pytest.raises(BraidError):
        parse_braid("s1^x")
    with pytest.raises(BraidError):
        parse_braid("s3")


def test_parse_refuses_oversized_words():
    # the expanded length counts each h as six letters
    for text in ("s1^1000001", "s1^600000 s2^600000", "h^200000"):
        with pytest.raises(BraidError):
            parse_braid(text)
    assert 6 * 166666 + 4 == MAX_LETTERS
    w = parse_braid("h^166666 s1^4")
    assert (w.fulltwist, len(w)) == (166666, 4)


def test_letters_always_reduced():
    w = BraidWord((S1, S1I, S2), 0)
    assert w.letters == (S2,)


def test_expand_fulltwist():
    assert expand_fulltwist(BraidWord((), 1)).letters == (S2, S1, S2, S1, S2, S1)
    assert expand_fulltwist(BraidWord((), -1)).letters == (S1I, S2I, S1I, S2I, S1I, S2I)
    w = parse_braid("s1 s2")
    assert expand_fulltwist(w) == w
    # exponent sum rises by 6 per twist
    w = parse_braid("h^2 s1")
    assert exponent_sum(expand_fulltwist(w)) == exponent_sum(w) == 13


def test_expand_position_immaterial():
    # h is central: inserting the expansion anywhere gives the same braid
    w = parse_braid("s1 s2^-2 s1")
    block = expand_fulltwist(BraidWord((), 1)).letters
    ref = BraidWord(block + w.letters, 0)
    for k in range(len(w.letters) + 1):
        other = BraidWord(w.letters[:k] + block + w.letters[k:], 0)
        assert braids_equal(ref, other)


def test_cyclic_conjugate():
    w = parse_braid("s1 s2^-1")
    assert cyclic_conjugate(w, 1).letters == (S2I, S1)
    assert cyclic_conjugate(w, 0) == w
    assert cyclic_conjugate(w, len(w.letters)) == w
    with pytest.raises(BraidError):
        cyclic_conjugate(w, 5)


def test_exponent_sum():
    assert exponent_sum(parse_braid("h s1 s2^-2")) == 5
    assert exponent_sum(parse_braid("1")) == 0
    w = parse_braid("h s1^2 s2^-3")
    assert exponent_sum(mirror(w)) == -exponent_sum(w)
    for k in range(len(w.letters) + 1):
        assert exponent_sum(cyclic_conjugate(w, k)) == exponent_sum(w)


def test_mirror_and_exchange():
    w = parse_braid("s1 s2^-1")
    assert mirror(w).letters == (S1I, S2)
    assert mirror(w, exchange=True).letters == (S2, S1I)
    assert mirror(mirror(w)) == w
    assert mirror(mirror(w, exchange=True), exchange=True) == w
    assert mirror(w).fulltwist == -w.fulltwist


def test_classify_examples():
    assert classify_baldwin(parse_braid("h s1 s2^-2")).to_json() == \
        {"type": 1, "d": 1, "a": [2]}
    assert classify_baldwin(parse_braid("h s2^5")).to_json() == \
        {"type": 2, "d": 1, "m": 5}
    assert classify_baldwin(parse_braid("h^2 s1^-2 s2^-1")).to_json() == \
        {"type": 3, "d": 2, "m": -2}
    assert classify_baldwin(parse_braid("1")).to_json() == {"type": None}
    assert classify_baldwin(parse_braid("s1 s2^-1")).to_json() == \
        {"type": 1, "d": 0, "a": [1]}


def test_classify_rotation_invariant():
    rng = random.Random(5)
    words = ["h s1 s2^-1 s1 s2^-2", "h^-1 s1 s1 s2^-3", "h s2^4", "s1 s2 s1"]
    for text in words:
        w = parse_braid(text)
        ref = classify_baldwin(w)
        for k in range(len(w.letters) + 1):
            assert classify_baldwin(cyclic_conjugate(w, k)) == ref
    for _ in range(50):
        letters = tuple((rng.choice((1, 2)), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 10)))
        w = BraidWord(letters, rng.randint(-1, 1))
        ref = classify_baldwin(w)
        for k in range(len(w.letters) + 1):
            assert classify_baldwin(cyclic_conjugate(w, k)) == ref


def test_classify_extracts_spelled_twists():
    # a written-out full twist is recognised symbolically
    assert classify_baldwin(parse_braid("s2 s1 s2 s1 s2 s1 s2^5")).to_json() == \
        {"type": 2, "d": 1, "m": 5}
    assert classify_baldwin(parse_braid("s1 s2 s1 s2 s1 s2 s2^5")).to_json() == \
        {"type": 2, "d": 1, "m": 5}
    # inverse twist, interleaved with an h bookkeeping power
    w = parse_braid("h^2 s1^-1 s2^-1 s1^-1 s2^-1 s1^-1 s2^-1 s1 s2^-2")
    assert classify_baldwin(w).to_json() == {"type": 1, "d": 1, "a": [2]}


def test_classify_out_of_family():
    assert classify_baldwin(parse_braid("h^2 s2^5")).kind == 0
    assert classify_baldwin(parse_braid("s1 s2")).kind == 0
    assert classify_baldwin(parse_braid("h s1^-4 s2^-1")).kind == 0
    assert classify_baldwin(parse_braid("h^3 s1^-1 s2^-1")).kind == 0


def test_classify_zero_exponents_allowed():
    # s1 s1 s2^-1 is the unit form with a1 = 0
    c = classify_baldwin(parse_braid("s1 s1 s2^-1"))
    assert c.kind == 1 and sorted(c.a) == [0, 1]


def _check_normalization(text, normalizer):
    w = parse_braid(text)
    out = normalizer(w)
    replayed = replay_moves(w, out.transcript)
    assert words_cyclically_equal(replayed, out.word)
    # mirroring flips the conjugacy class; compare oracle invariants on the
    # appropriate side
    probe = mirror(w, exchange=True) if getattr(out, "mirrored", False) else w
    if getattr(out, "mirrored", False):
        probe = mirror(probe)
    assert conjugacy_invariants(probe) == conjugacy_invariants(out.word)
    return out


def test_normalize_d1_torus():
    out = _check_normalization("h s1 s2^-1", normalize_type1_d1)
    assert out.kind == "torus" and (out.p, out.q) == (2, 5)


def test_normalize_d1_connected_sum():
    out = _check_normalization("h s1 s2^-2", normalize_type1_d1)
    assert out.kind == "connected_sum"
    assert sorted((out.q1, out.q2)) == [2, 3]


def test_normalize_d1_cycle():
    out = _check_normalization("h s1 s2^-2 s1 s2^-2", normalize_type1_d1)
    assert out.kind == "cycle"
    assert (out.m, out.a, out.b) == (3, (1, 1, 1), (1, 1))
    assert format_braid(out.word) == "s2^3 s1 s2^-1 s1 s2^-1 s1"


def test_normalize_d1_n1_large_a():
    # a > 2 leaves a cycle with b1 = a - 2
    out = _check_normalization("h s1 s2^-4", normalize_type1_d1)
    assert out.kind == "cycle"
    assert (out.m, out.a, out.b) == (3, (1, 1), (2,))


def test_normalize_d1_degenerate_collapse():
    # all blocks collapse: reported as a connected sum, not a cycle form
    out = _check_normalization("h s1 s2^-1 s1 s2^-1", normalize_type1_d1)
    assert out.kind == "connected_sum"
    assert sorted((out.q1, out.q2)) == [3, 3]


def test_normalize_dm1_n1_flagged():
    out = _check_normalization("h^-1 s1 s2^-1", normalize_type1_dm1)
    assert out.kind == "torus" and out.q == 1
    assert out.notes and "s1^-1 s2^-5" in out.notes[0]


def test_normalize_dm1_cycle():
    out = _check_normalization("h^-1 s1 s2^-1 s1 s2^-2", normalize_type1_dm1)
    assert out.kind == "cycle"
    assert (out.m, out.a, out.b) == (1, (3, 4), (1,))
    assert out.mirrored


def test_normalize_preconditions():
    with pytest.raises(NormalizationError):
        normalize_type1_dm1(parse_braid("s1 s2^-1"))       # d = 0
    with pytest.raises(NormalizationError):
        normalize_type1_d1(parse_braid("h s2^3"))          # wrong family
    with pytest.raises(NormalizationError):
        normalize_type1(parse_braid("s1 s2^-1"))


def _type1_words(dsign, max_n=3, max_a=3):
    import itertools
    for n in range(1, max_n + 1):
        for a in itertools.product(range(max_a + 1), repeat=n):
            if not any(a):
                continue
            text = "h" if dsign == 1 else "h^-1"
            for ai in a:
                text += " s1 s2^-%d" % ai if ai else " s1"
            yield text


def test_normalizer_postconditions_on_grid():
    for text in _type1_words(1):
        out = _check_normalization(text, normalize_type1_d1)
        if out.kind == "cycle":
            assert out.m > 2
    for text in _type1_words(-1):
        out = _check_normalization(text, normalize_type1_dm1)
        if out.kind == "cycle":
            assert out.m == 1 and out.a[0] > 1 and out.a[-1] > 1


def test_exponent_sum_preserved_through_transcripts():
    # replay_moves checks the bookkeeping step by step and raises on a break
    for text in ["h s1 s2^-3 s1 s2^-1", "h^-1 s1 s2^-2 s1 s2^-2"]:
        w = parse_braid(text)
        out = normalize_type1(w)
        replay_moves(w, out.transcript)


def test_oracle_sanity():
    # braid relation and the two twist spellings, checked through the oracle
    assert braids_equal(parse_braid("s1 s2 s1"), parse_braid("s2 s1 s2"))
    assert braids_equal(parse_braid("h"), parse_braid("s2 s1 s2 s1 s2 s1"))
    assert braids_equal(parse_braid("h"), parse_braid("s1 s2 s1 s2 s1 s2"))
    assert braids_equal(parse_braid("h"), parse_braid("s2 s1^2 s2 s1^2"))
    assert not braids_equal(parse_braid("s1"), parse_braid("s2"))


def test_free_reduction_properties():
    rng = random.Random(29)
    for _ in range(50):
        letters = tuple((rng.choice((1, 2)), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 12)))
        w = BraidWord(letters, 0)
        # idempotent and length-nonincreasing
        assert BraidWord(w.letters, 0) == w
        assert len(w.letters) <= len(letters)
        # w times its inverse reduces to the empty word
        inverse = tuple((g, -s) for g, s in reversed(w.letters))
        assert BraidWord(w.letters + inverse, 0).letters == ()


def test_classify_invariant_under_twist_spelling():
    # writing a symbolic twist out as six letters, in either spelling and at
    # any position where free reduction does not eat into the block, never
    # changes the classification (classification works up to free/cyclic
    # reduction and contiguous twist extraction only, so a cancelled-into
    # block is legitimately out of reach)
    from braidcover.braid import TWIST_POS, TWIST_NEG
    rng = random.Random(41)
    family_words = ["h s1 s2^-2", "h^-1 s1 s2^-1 s1 s2^-3", "h s2^5",
                    "h^-1 s2^-2", "h^2 s1^-3 s2^-1", "s1 s2^-1 s1 s2^-1",
                    "s1 s2 s2", "h^2 s2^3"]
    for text in family_words:
        w = parse_braid(text)
        ref = classify_baldwin(w)
        for _ in range(20):
            block = rng.choice(TWIST_POS + TWIST_NEG)
            dd = 1 if block in TWIST_POS else -1
            k = rng.randint(0, len(w.letters))
            before = w.letters[k - 1] if k else None
            after = w.letters[k] if k < len(w.letters) else None
            if before and before == (block[0][0], -block[0][1]):
                continue
            if after and after == (block[-1][0], -block[-1][1]):
                continue
            spelled = BraidWord(w.letters[:k] + block + w.letters[k:],
                                w.fulltwist - dd)
            assert classify_baldwin(spelled) == ref, (text, block, k)


def test_normalizers_preserve_determinant_wide():
    # beyond the acceptance grid: exponents up to 5, n up to 5, checked
    # against the representation-theoretic determinant of both sides
    import itertools
    from braidcover.braid import normalize_type1
    from b3oracle import burau_determinant
    rng = random.Random(43)
    for trial in range(120):
        n = rng.randint(1, 5)
        a = [rng.randint(0, 5) for _ in range(n)]
        if not any(a):
            a[0] = 1
        d = rng.choice((1, -1))
        text = "h" if d == 1 else "h^-1"
        for ai in a:
            text += " s1 s2^-%d" % ai if ai else " s1"
        w = parse_braid(text)
        out = normalize_type1(w)
        replayed = replay_moves(w, out.transcript)
        assert words_cyclically_equal(replayed, out.word)
        assert burau_determinant(w) == burau_determinant(out.word), text


def test_classify_after_full_expansion():
    # a single spelled-out twist is recovered whenever the block survives
    # free reduction against its neighbours; blocks that cancel into the
    # tail (and higher twist powers) need braid relations and stay out of
    # the classifier's move set by design
    for text in ["h s1 s2^-2", "h^-1 s1 s2^-1 s1 s2^-3", "h s2^5",
                 "h^-1 s2^-2", "h^-1 s1^-1 s2^-1"]:
        w = parse_braid(text)
        assert classify_baldwin(expand_fulltwist(w)) == classify_baldwin(w), text
    # cancelled-into block: legitimately unrecognised without braid moves
    assert classify_baldwin(expand_fulltwist(parse_braid("h s1^-2 s2^-1"))).kind == 0
