import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidcover import braid
from braidcover.braid import (BaldwinClass, BraidError, BraidWord,
                              NormalizationError, parse_braid, format_braid,
                              expand_fulltwist, exponent_sum, mirror,
                              classify_baldwin, normalize_type1_d1,
                              normalize_type1_dm1, twist_search,
                              replay_moves, words_cyclically_equal,
                              MAX_LETTERS, S1, S1I, S2, S2I,
                              TWIST_NEG, TWIST_POS)
from braidcover.diagram import DecoratedCycleGraph
from braidcover.presentation import AbelianInvariants, GroupPresentation
from braidcover.rewrite import FreeWord, least_rotation

from b3oracle import braids_equal, conjugacy_invariants, evaluate
from support import (conjugated_unit_form, cyclic_conjugate, drop_later_rotations,
                     normalize_type1, reference_normalize_d1, reference_normalize_dm1,
                     reference_twist_search, unit_form, workload_lines)

LETTER = st.sampled_from((S1, S1I, S2, S2I))


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


def test_value_records_are_immutable_and_compare_by_value():
    # a BaldwinClass leaves its moves out of equality and hashing
    one = BaldwinClass(1, d=1, a=(2,))
    other = BaldwinClass(1, d=1, a=(2,), moves=(("rotate", 1), ("reduce",)))
    assert one == other and not one != other and hash(one) == hash(other)
    assert one != BaldwinClass(1, d=-1, a=(2,))
    d = DecoratedCycleGraph(2, [1, 2], [3])
    assert d == DecoratedCycleGraph(2, (1, 2), (3,))
    assert hash(d) == hash(DecoratedCycleGraph(2, (1, 2), (3,)))
    assert d.a == (1, 2) and d.b == (3,)
    with pytest.raises(BraidError):
        BraidWord(((3, 1),), 0)
    assert BraidWord((S1, S2, S2I), 0).letters == (S1,)
    records = [(BraidWord((S1,), 1), "fulltwist"), (one, "kind"), (d, "m"),
               (GroupPresentation(("v",), ()), "relators"),
               (AbelianInvariants((2,), 0), "rank")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


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


def _outcome_params(out):
    if out.kind == "cycle":
        return out.m, out.a, out.b
    return (out.q,) if out.kind == "torus" else (out.q1, out.q2)


def _check_against_reference(u, out):
    """The closed form is the reference chain's word letter for letter, with
    its outcome, and its conjugator is the inverse of the product of the
    prefixes the chain rotates off, and takes u to N (or its exchanged
    mirror) by the independent oracle."""
    ref = (reference_normalize_d1 if u.fulltwist == 1 else reference_normalize_dm1)(u)
    assert out.word == ref.word and out.mirrored == ref.mirrored
    assert (out.kind, _outcome_params(out)) == (ref.kind, ref.params)
    assert out.conjugator.letters == tuple((g, -s) for g, s in reversed(ref.rotated.letters))
    assert braids_equal(*conjugated_unit_form(u, out))


def _check_normalization(text, normalizer):
    w = parse_braid(text)
    cls, u = unit_form(w)
    out = normalizer(u, cls)
    assert out.transcript == cls.moves
    _check_against_reference(u, out)
    # mirroring flips the conjugacy class; compare oracle invariants on the
    # appropriate side
    probe = mirror(mirror(w, exchange=True)) if out.mirrored else w
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
    # the derived branch set T(2, a1+4), with the source's T(2, a1) as an erratum
    out = _check_normalization("h^-1 s1 s2^-1", normalize_type1_dm1)
    assert out.kind == "torus" and out.q == 5 and out.mirrored
    assert format_braid(out.word) == "s2 s1^5"
    assert out.notes == ("erratum: the source states the branch set T(2, a1) = "
                         "T(2, 1); the derived word gives T(2, a1+4)",)


def test_normalize_dm1_cycle():
    out = _check_normalization("h^-1 s1 s2^-1 s1 s2^-2", normalize_type1_dm1)
    assert out.kind == "cycle"
    assert (out.m, out.a, out.b) == (1, (3, 4), (1,))
    assert out.mirrored


def test_normalize_preconditions():
    d0, other = parse_braid("s1 s2^-1"), parse_braid("h s2^3")
    with pytest.raises(NormalizationError):
        normalize_type1_dm1(d0, classify_baldwin(d0))           # d = 0
    with pytest.raises(NormalizationError):
        normalize_type1_d1(other, classify_baldwin(other))      # wrong family
    with pytest.raises(NormalizationError):
        normalize_type1(parse_braid("s1 s2^-1"))


def test_normalizer_refuses_a_class_its_moves_do_not_reach():
    # one spelled-out twist in front of the unit form s1 s2^-2 s1 s2^-2
    w = parse_braid("s2 s1 s2 s1 s2 s1 s1 s2^-2 s1 s2^-2")
    cls = classify_baldwin(w)
    assert cls.to_json() == {"type": 1, "d": 1, "a": [2, 2]}
    assert normalize_type1_d1(replay_moves(w, cls.moves), cls).kind == "cycle"
    last = max(i for i, move in enumerate(cls.moves) if move[0] == "extract_h")
    for bad in (cls._replace(moves=cls.moves[:last] + cls.moves[last + 1:]),
                cls._replace(a=(2, 3))):
        with pytest.raises(NormalizationError, match="the class moves reach"):
            normalize_type1_d1(replay_moves(w, bad.moves), bad)
    w = parse_braid("h^-1 s1 s2^-1 s1 s2^-2")
    with pytest.raises(NormalizationError, match="the class moves reach"):
        normalize_type1_dm1(w, classify_baldwin(w)._replace(a=(1, 1)))


def test_the_normalizer_classifies_a_word_with_no_twist_left(monkeypatch):
    # on every family (1) line with d = +-1 of the workloads (ladder and
    # twisted among them), the normalizer's check of the word the class
    # moves reach searches one state
    sizes, search = [], braid.twist_search

    def recorded(letters):
        states = search(letters)
        sizes.append(len(states))
        return states

    monkeypatch.setattr(braid, "twist_search", recorded)
    lines = 0
    for line in workload_lines():
        w = parse_braid(line)
        cls = classify_baldwin(w)
        if cls.kind != 1 or cls.d == 0:
            continue
        u = replay_moves(w, cls.moves)
        del sizes[:]
        (normalize_type1_d1 if cls.d == 1 else normalize_type1_dm1)(u, cls)
        assert sizes == [1], line
        lines += 1
    assert lines > 800


def test_closed_forms_match_the_reference_chain_on_workload_lines():
    # every family (1) line with d = +-1 of the four workloads at seeds 1-2
    lines = 0
    for line in workload_lines():
        w = parse_braid(line)
        cls = classify_baldwin(w)
        if cls.kind == 1 and cls.d:
            _check_against_reference(replay_moves(w, cls.moves), normalize_type1(w))
            lines += 1
    assert lines == 809


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from((1, -1)),
       st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
       st.integers(min_value=0), st.lists(st.booleans(), max_size=3))
def test_closed_forms_match_the_reference_chain(d, a, turn, spell):
    # a random member, rotated, with up to three twists spelled out in front
    # in either spelling where free reduction leaves them whole; its normal
    # form is the chain's, letter for letter
    if not any(a):
        a[0] = 1
    unit = BraidWord.from_runs([r for ai in a for r in ((1, 1), (2, -ai))])
    k = turn % len(unit.letters)
    letters = sum(((TWIST_POS if d == 1 else TWIST_NEG)[s] for s in spell), ()) \
        + unit.letters[k:] + unit.letters[:k]
    w = BraidWord(letters, d - d * len(spell))
    assume(w.letters == letters)
    cls, u = unit_form(w)
    assert (cls.kind, cls.d) == (1, d)
    out = (normalize_type1_d1 if d == 1 else normalize_type1_dm1)(u, cls)
    _check_against_reference(u, out)


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
    # replay_moves checks the bookkeeping step by step and raises on a break:
    # the class moves keep the exponent sum, a rotation by a wrong amount
    # leaves no twist at the front to extract, and no other move is accepted
    for text in ["s2 s1 s2 s1 s2 s1 s1 s2^-3 s1 s2^-1",
                 "s1 s2^-2 s1^-1 s2^-1 s1^-1 s2^-1 s1^-1 s2^-1 s1 s2^-2"]:
        w = parse_braid(text)
        out = normalize_type1(w)
        assert out.transcript and exponent_sum(replay_moves(w, out.transcript)) == exponent_sum(w)
    with pytest.raises(NormalizationError, match="no twist block"):
        replay_moves(w, (("rotate", 1), ("extract_h", -1)))
    for kind in ("insert", "braid_rel", "expand_h", "mirror", "exchange"):
        with pytest.raises(NormalizationError, match="unknown move"):
            braid.apply_move((w.letters, w.fulltwist), (kind, 0, 0))


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
        assert braids_equal(*conjugated_unit_form(unit_form(w)[1], out)), text
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


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(LETTER, max_size=40))
def test_twist_search_matches_reference_on_random_words(letters):
    # twist_search takes freely reduced letters; the reference reduces them
    reduced = BraidWord(tuple(letters)).letters
    assert twist_search(reduced) == drop_later_rotations(reference_twist_search(letters))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(TWIST_POS + TWIST_NEG),
                          st.lists(LETTER, max_size=3)), max_size=6),
       st.integers(min_value=0))
def test_twist_search_matches_reference_on_twist_heavy_words(parts, turn):
    # up to six spelled-out twists with stray letters between them, rotated
    letters = [l for block, stray in parts for l in block + tuple(stray)]
    k = turn % (len(letters) + 1)
    letters = letters[k:] + letters[:k]
    reduced = BraidWord(tuple(letters)).letters
    assert twist_search(reduced) == drop_later_rotations(reference_twist_search(letters))


def test_twist_search_matches_reference_on_a_long_word():
    # 955 exact spellings fall into 19 cyclic words
    letters = parse_braid("s1 s2 " * 54 + "s1 s2^-2").letters
    states, spelled = twist_search(letters), reference_twist_search(letters)
    assert len(letters) == 111 and len(states) == 19 and len(spelled) == 955
    assert states == drop_later_rotations(spelled)


def test_truncated_twist_search_is_flagged(monkeypatch):
    w = parse_braid("s1 s2 " * 54 + "s1 s2^-2")
    assert classify_baldwin(w) == braid.NOT_IN_FAMILY     # 19 states, no match
    monkeypatch.setattr(braid, "MAX_TWIST_STATES", 5)
    c = classify_baldwin(w)
    assert c.to_json() == {"type": None, "stopped_at": 5}
    # a search that ends below the cap is not flagged
    c = classify_baldwin(parse_braid("h^-1 s1 s2 s1 s2 s1 s2 s1 s2^-1"))
    assert (c.to_json(), c.stopped_at) == ({"type": 1, "d": 0, "a": [1]}, 0)


CODE = st.text(alphabet="aAbB", max_size=200)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(CODE, st.text(alphabet="ab", min_size=130, max_size=400),
                 st.builds(lambda root, k: root * k, CODE, st.integers(1, 80))))
@example("")
@example("ab" * 100)                # a power with more least-letter starts than the cap
@example("ab" * 100 + "b")          # as many, and primitive
@example(("ab" * 70 + "b") * 3)     # a power whose root has as many
def test_encoded_least_rotation_matches_duval(word):
    # random encoded words, words with more starts at their least letter
    # than ROTATION_STARTS, and powers of random words
    assert braid._least_rotation_code(word) == least_rotation(word)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(LETTER, max_size=20), st.lists(LETTER, max_size=4),
       st.integers(min_value=0), st.booleans())
def test_words_cyclically_equal_matches_rotation(letters, conj, turn, spoil):
    # a conjugate of a rotation is cyclically equal; a word with one letter
    # changed is judged as trying every rotation judges it
    w = BraidWord(tuple(letters))
    core = FreeWord(w.letters).cyclic_reduce().letters
    if spoil and core:
        other = BraidWord(((3 - core[0][0], core[0][1]),) + core[1:])
        want = any(other.letters[i:] + other.letters[:i] == core
                   for i in range(len(core)))
    else:
        k = turn % (len(core) + 1)
        inv = tuple((g, -s) for g, s in reversed(conj))
        other = BraidWord(inv + core[k:] + core[:k] + tuple(conj))
        want = True
    assert words_cyclically_equal(w, other) == want


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(LETTER, max_size=40), st.integers(min_value=-7, max_value=7))
@example([S1, S2I] * 8000, 0)       # entries of about 3,300 digits
@example([S2, S1I, S2], -3)         # an odd negative twist power gives -I
def test_sl2_matrix_matches_the_oracle(letters, d):
    w = BraidWord(tuple(letters), d)
    m = braid.sl2_matrix(w)
    assert m == evaluate(w)[1]
    assert all(type(x) is int for row in m for x in row)
