from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbc.errors import (
    LengthMismatchError,
    NotComposableError,
    NotDecreasingError,
    WidthMismatchError,
)
from rbc.moves import (
    MoveMap,
    MoveStep,
    Ordering,
    identity_map,
    map_apply,
    map_compare,
    map_par,
    map_seq,
    step_chain,
    step_par,
    step_seq,
    total_rank,
    word_compare,
    word_rank,
)

from .oracles import _words_upto, oracle_map_compare, oracle_map_less, oracle_total_rank
from .strategies import WORDS, move_maps


def test_word_compare_examples():
    assert word_compare("lr", "rl") is Ordering.GREATER
    assert word_compare("lt", "tl") is Ordering.GREATER
    assert word_compare("rt", "tr") is Ordering.GREATER
    assert word_compare("", "ttt") is Ordering.LESS
    assert word_compare("rr", "rr") is Ordering.EQUAL
    assert word_compare("t", "r") is Ordering.LESS
    assert word_compare("r", "l") is Ordering.LESS


def test_word_compare_rejects_bad_letter():
    with pytest.raises(ValueError):
        word_compare("lx", "l")


def test_word_rank_small_values():
    assert word_rank("") == 0
    assert word_rank("t") == 1
    assert word_rank("r") == 2
    assert word_rank("l") == 3
    assert word_rank("tt") == 4


def test_word_rank_is_order_isomorphism_up_to_length_4():
    words = _words_upto(4)
    assert len(words) == 121
    # sort using only pairwise comparison
    import functools

    def cmp(a, b):
        c = word_compare(a, b)
        return -1 if c is Ordering.LESS else (0 if c is Ordering.EQUAL else 1)

    by_compare = sorted(words, key=functools.cmp_to_key(cmp))
    assert [word_rank(w) for w in by_compare] == list(range(121))


@given(WORDS, WORDS)
def test_rank_reflects_compare(a, b):
    c = word_compare(a, b)
    if c is Ordering.LESS:
        assert word_rank(a) < word_rank(b)
    elif c is Ordering.GREATER:
        assert word_rank(a) > word_rank(b)
    else:
        assert a == b


@given(WORDS, WORDS, WORDS, WORDS)
def test_word_order_monotone_under_concatenation(a, b, u, v):
    if word_compare(a, b) is not Ordering.GREATER and \
       word_compare(u, v) is not Ordering.GREATER:
        assert word_compare(a + u, b + v) is not Ordering.GREATER


def test_map_apply_example():
    f = MoveMap((0, 1, 2), ("t", "t", "t"))
    assert map_apply(f, ("r", "", "l")) == ("rt", "t", "lt")


def test_map_apply_length_checked():
    with pytest.raises(LengthMismatchError):
        map_apply(identity_map(2), ("l",))


def test_map_constructor_rejects_bad_src():
    with pytest.raises(ValueError):
        MoveMap((0, 0), ("", ""))
    with pytest.raises(LengthMismatchError):
        MoveMap((0, 1), ("",))


def test_map_seq_swap_twice():
    sw = MoveMap((1, 0), ("l", "r"))
    f = map_seq(sw, sw)
    assert f.src == (0, 1)
    # derived by applying the swap map twice to symbols:
    # (v, w) -> (wl, vr) -> (vrl, wlr)
    assert f.suffixes == ("rl", "lr")
    assert map_apply(f, ("v", "w")) == ("vrl", "wlr")


def test_map_seq_swap_then_not():
    sw = MoveMap((1, 0), ("l", "r"))
    n0 = MoveMap((0, 1), ("t", ""))
    f = map_seq(sw, n0)
    assert f.src == (1, 0)
    assert f.suffixes == ("lt", "r")
    assert map_apply(f, ("v", "w")) == ("wlt", "vr")


def test_map_seq_width_checked():
    with pytest.raises(WidthMismatchError):
        map_seq(identity_map(2), identity_map(3))


def test_map_par_swap_and_t2():
    sw = MoveMap((1, 0), ("l", "r"))
    t2m = MoveMap((0, 1), ("t", "t"))
    f = map_par(sw, t2m)
    assert f.src == (1, 0, 2, 3)
    assert f.suffixes == ("l", "r", "t", "t")
    assert map_apply(f, ("v", "w", "z", "u")) == ("wl", "vr", "zt", "ut")


def test_map_compare_examples():
    a = MoveMap((0, 1), ("t", "l"))
    b = MoveMap((0, 1), ("l", "t"))
    assert map_compare(a, b) is Ordering.INCOMPARABLE
    assert map_compare(a, a) is Ordering.EQUAL
    lo = MoveMap((0, 1), ("t", "t"))
    hi = MoveMap((0, 1), ("t", "lt"))
    assert map_compare(lo, hi) is Ordering.LESS
    assert map_compare(hi, lo) is Ordering.GREATER
    routed = MoveMap((1, 0), ("t", "t"))
    assert map_compare(lo, routed) is Ordering.INCOMPARABLE


@given(move_maps())
def test_map_seq_identity_unit(f):
    assert map_seq(identity_map(f.n), f) == f
    assert map_seq(f, identity_map(f.n)) == f


@given(st.data())
def test_map_apply_coherence(data):
    f = data.draw(move_maps())
    g = data.draw(move_maps(n=f.n))
    xs = tuple(data.draw(st.lists(WORDS, min_size=f.n, max_size=f.n)))
    assert map_apply(map_seq(f, g), xs) == map_apply(g, map_apply(f, xs))


@given(st.data())
def test_map_par_coherence(data):
    f = data.draw(move_maps(max_n=3))
    g = data.draw(move_maps(max_n=3))
    xs = tuple(data.draw(st.lists(WORDS, min_size=f.n, max_size=f.n)))
    ys = tuple(data.draw(st.lists(WORDS, min_size=g.n, max_size=g.n)))
    assert map_apply(map_par(f, g), xs + ys) == map_apply(f, xs) + map_apply(g, ys)


@given(st.data())
def test_map_seq_associative(data):
    f = data.draw(move_maps())
    g = data.draw(move_maps(n=f.n))
    h = data.draw(move_maps(n=f.n))
    assert map_seq(map_seq(f, g), h) == map_seq(f, map_seq(g, h))


@given(st.data())
def test_map_par_associative_and_unital(data):
    f = data.draw(move_maps(max_n=3))
    g = data.draw(move_maps(max_n=3))
    h = data.draw(move_maps(max_n=3))
    assert map_par(map_par(f, g), h) == map_par(f, map_par(g, h))
    assert map_par(identity_map(0), f) == f
    assert map_par(f, identity_map(0)) == f


@given(st.data())
def test_map_exchange_law(data):
    f = data.draw(move_maps(max_n=3))
    g = data.draw(move_maps(n=f.n))
    h = data.draw(move_maps(max_n=3))
    k = data.draw(move_maps(n=h.n))
    assert map_par(map_seq(f, g), map_seq(h, k)) == map_seq(
        map_par(f, h), map_par(g, k)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_map_compare_matches_pointwise_oracle(data):
    n = data.draw(st.integers(1, 3))
    f = data.draw(move_maps(n=n, max_suffix=2))
    # bias towards comparable pairs: half the time reuse f's routing
    if data.draw(st.booleans()):
        g = MoveMap(
            f.src,
            tuple(data.draw(st.lists(
                st.text(alphabet="lrt", max_size=2), min_size=n, max_size=n)))
        )
    else:
        g = data.draw(move_maps(n=n, max_suffix=2))
    verdict = map_compare(f, g)
    assert (verdict is Ordering.LESS) == oracle_map_less(f, g)
    assert (verdict is Ordering.GREATER) == oracle_map_less(g, f)
    assert (verdict is Ordering.EQUAL) == (f == g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_map_compare_equals_word_compare_oracle(data):
    """map_compare compares suffixes without re-checking letters; it must
    agree with suffix-by-suffix word_compare, including on longer words
    of equal length, where the t < r < l order decides."""
    n = data.draw(st.integers(0, 4))
    f = data.draw(move_maps(n=n, max_suffix=6))
    how = data.draw(st.sampled_from(["same lengths", "same routing", "any"]))
    if how == "same lengths":
        g = MoveMap(f.src, tuple(data.draw(st.text(alphabet="lrt", min_size=len(w),
                                                   max_size=len(w)))
                                 for w in f.suffixes))
    elif how == "same routing":
        g = MoveMap(f.src, tuple(data.draw(st.lists(
            st.text(alphabet="lrt", max_size=6), min_size=n, max_size=n))))
    else:
        g = data.draw(move_maps(n=n, max_suffix=6))
    assert map_compare(f, g) is oracle_map_compare(f, g)
    assert map_compare(g, f) is oracle_map_compare(g, f)


@given(st.data())
def test_monotone_under_composition(data):
    """Growing any suffix of either factor never shrinks the composite."""
    f = data.draw(move_maps(max_suffix=2))
    n = f.n
    g = data.draw(move_maps(n=n, max_suffix=2))
    grow = lambda w, extra: w + extra  # noqa: E731
    extras = data.draw(st.lists(st.text(alphabet="lrt", max_size=2),
                                min_size=n, max_size=n))
    f_big = MoveMap(f.src, tuple(grow(w, e) for w, e in zip(f.suffixes, extras)))
    left = map_seq(f, g)
    right = map_seq(f_big, g)
    assert map_compare(left, right) in (Ordering.LESS, Ordering.EQUAL)


def _shrunk(data, f: MoveMap) -> MoveMap:
    """A map <= f with the same routing, by deleting trailing letters."""
    keep = [
        w[: data.draw(st.integers(0, len(w)), label=f"keep[{i}]")]
        for i, w in enumerate(f.suffixes)
    ]
    return MoveMap(f.src, tuple(keep))


@given(st.data())
def test_strictness_survives_both_compositions(data):
    """Dominance on both factors, strict somewhere, stays strict after
    composing — the fact that lets per-rule drops cover whole circuits."""
    f_hi = data.draw(move_maps(max_suffix=2))
    g_hi = data.draw(move_maps(n=f_hi.n, max_suffix=2))
    f_lo = _shrunk(data, f_hi)
    g_lo = _shrunk(data, g_hi)
    comparisons = (map_compare(f_lo, f_hi), map_compare(g_lo, g_hi))
    assert all(c in (Ordering.LESS, Ordering.EQUAL) for c in comparisons)
    seq = map_compare(map_seq(f_lo, g_lo), map_seq(f_hi, g_hi))
    par_g = data.draw(move_maps(max_suffix=2))
    par = map_compare(map_par(f_lo, par_g), map_par(f_hi, par_g))
    if Ordering.LESS in comparisons:
        assert seq is Ordering.LESS
    else:
        assert seq is Ordering.EQUAL
    if comparisons[0] is Ordering.LESS:
        assert par is Ordering.LESS
    elif comparisons[0] is Ordering.EQUAL:
        assert par is Ordering.EQUAL


def test_move_step_requires_non_increase():
    hi = MoveMap((0,), ("lt",))
    lo = MoveMap((0,), ("tl",))
    MoveStep(hi, lo)  # fine: lo sits below hi
    MoveStep(hi, hi)  # equality allowed
    with pytest.raises(NotDecreasingError):
        MoveStep(lo, hi)
    with pytest.raises(NotDecreasingError):
        MoveStep(MoveMap((0, 1), ("t", "l")), MoveMap((0, 1), ("l", "t")))


def test_step_par_keeps_strictness():
    s = MoveStep(MoveMap((0,), ("tt",)), MoveMap((0,), ("",)))
    wide = step_par(s, MoveStep(identity_map(2), identity_map(2)))
    assert wide.before.n == 3
    assert wide.is_strict


def test_step_seq_composes_sides():
    s1 = MoveStep(MoveMap((0,), ("tt",)), MoveMap((0,), ("",)))
    s2 = MoveStep(MoveMap((0,), ("l",)), MoveMap((0,), ("t",)))
    s = step_seq(s1, s2)
    assert s.before == MoveMap((0,), ("ttl",))
    assert s.after == MoveMap((0,), ("t",))
    assert s.is_strict


def test_step_chain_checks_meeting_point():
    a = MoveStep(MoveMap((0,), ("ll",)), MoveMap((0,), ("t",)))
    b = MoveStep(MoveMap((0,), ("t",)), MoveMap((0,), ("",)))
    c = step_chain(a, b)
    assert c.before == a.before and c.after == b.after
    with pytest.raises(NotComposableError):
        step_chain(b, a)


def test_total_rank_examples():
    assert total_rank(identity_map(4)) == 0
    assert total_rank(MoveMap((1, 0), ("l", "r"))) == 5


@given(move_maps(max_n=5, max_suffix=6))
def test_total_rank_equals_word_rank_oracle(f):
    assert total_rank(f) == oracle_total_rank(f)


@given(st.data())
def test_chains_of_strict_steps_descend_in_rank(data):
    """Strict steps shrink the natural-number shadow, so chains bottom out."""
    n = data.draw(st.integers(1, 3))
    f = data.draw(move_maps(n=n, max_suffix=3))
    current = f
    for _ in range(data.draw(st.integers(1, 3))):
        # chop one letter off some nonempty suffix, if any remain
        idx = [i for i, s in enumerate(current.suffixes) if s]
        if not idx:
            break
        i = data.draw(st.sampled_from(idx))
        smaller = MoveMap(
            current.src,
            tuple(s[:-1] if j == i else s for j, s in enumerate(current.suffixes)),
        )
        step = MoveStep(current, smaller)
        assert step.is_strict
        assert total_rank(smaller) < total_rank(current)
        current = smaller
