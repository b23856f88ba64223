import math
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantortx.words import (
    EMPTY,
    EQUAL,
    GREATER,
    LESS,
    EvPeriodicWord,
    InvalidInput,
    canonicalize_clopen,
    cone,
    first_difference,
    format_word,
    gcp,
    lex_compare_evp,
    parse_dotted,
    parse_evp,
    parse_word,
    rotation_class_of,
    whole_space,
)


def fine_wilf_word(p, q):
    """A word of length p + q - 2 with the coprime periods p and q that is
    not constant: positions p or q apart are joined, leaving two classes."""
    size = p + q - 2
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(size):
        for j in (i + p, i + q):
            if j < size:
                parent[find(j)] = find(i)
    return tuple(int(find(i) != find(0)) for i in range(size))


def lcm_compare(x, y):
    """Lexicographic comparison over max(pre) + lcm of the period lengths
    letters, the earlier end point."""
    for i in range(max(len(x.pre), len(y.pre)) + math.lcm(len(x.per), len(y.per))):
        a, b = x.letter(i), y.letter(i)
        if a != b:
            return LESS if a < b else GREATER
    return EQUAL


def members_at_depth(s, depth):
    """Brute-force membership oracle: the set of length-depth words whose
    point-cone lies in the union."""
    return {
        w
        for w in cartesian(range(s.n), repeat=depth)
        if any(w[: len(c)] == c for c in s.cones)
    }


# small random antichain inputs: sets of cones over n <= 4, depth <= 5
def _cone_lists(n):
    return st.lists(st.lists(st.integers(0, n - 1), max_size=5).map(tuple), max_size=6)


cone_sets = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _cone_lists(n))
)

cone_set_pairs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), _cone_lists(n), _cone_lists(n))
)


class TestCanonicalize:
    def test_complete_sibling_merge(self):
        assert canonicalize_clopen(2, [(0, 0), (0, 1), (1,)]).cones == (EMPTY,)

    def test_half_space_stays(self):
        assert canonicalize_clopen(4, [(0,), (1,)]).cones == ((0,), (1,))

    def test_prefix_absorption(self):
        assert canonicalize_clopen(3, [(0,), (0, 0), (1, 2)]).cones == ((0,), (1, 2))

    def test_mixed_alphabet_letter_rejected(self):
        with pytest.raises(InvalidInput):
            canonicalize_clopen(2, [(3,)])

    @given(cone_sets)
    @settings(max_examples=150)
    def test_idempotent_and_union_preserving(self, data):
        n, cones = data
        s = canonicalize_clopen(n, cones)
        assert canonicalize_clopen(n, s.cones) == s
        depth = 6
        raw = {
            w
            for w in cartesian(range(n), repeat=depth)
            if any(w[: len(c)] == c for c in cones)
        }
        assert members_at_depth(s, depth) == raw


class TestBooleanAlgebra:
    def test_union_halves(self):
        assert cone(2, (0,)).union(cone(2, (1,))).is_whole()

    def test_disjoint_halves(self):
        a = canonicalize_clopen(4, [(0,), (1,)])
        b = canonicalize_clopen(4, [(2,), (3,)])
        assert a.intersection(b).is_empty()
        assert a.disjoint(b)

    def test_complement_of_deep_cone(self):
        assert cone(2, (0, 1)).complement().cones == ((0, 0), (1,))

    @given(cone_set_pairs)
    @settings(max_examples=100)
    def test_laws_against_pointwise_oracle(self, data):
        n, ca, cb = data
        a = canonicalize_clopen(n, ca)
        b = canonicalize_clopen(n, cb)
        depth = 6
        ma, mb = members_at_depth(a, depth), members_at_depth(b, depth)
        assert members_at_depth(a.union(b), depth) == ma | mb
        assert members_at_depth(a.intersection(b), depth) == ma & mb
        universe = set(cartesian(range(n), repeat=depth))
        assert members_at_depth(a.complement(), depth) == universe - ma
        # algebraic identities hold exactly on canonical forms
        assert a.union(b) == b.union(a)
        assert a.intersection(b) == b.intersection(a)
        assert a.union(b).complement() == a.complement().intersection(b.complement())
        assert a.complement().complement() == a

    @given(cone_set_pairs)
    @settings(max_examples=300)
    def test_disjoint_matches_empty_intersection(self, data):
        n, ca, cb = data
        sets = [
            canonicalize_clopen(n, ca),
            canonicalize_clopen(n, cb),
            canonicalize_clopen(n, []),
            whole_space(n),
        ]
        for a in sets:
            for b in sets:
                assert a.disjoint(b) == a.intersection(b).is_empty()

    def test_disjoint_examples(self):
        a = canonicalize_clopen(3, [(0, 1), (2,)])
        assert not a.disjoint(cone(3, (0,)))
        assert not a.disjoint(cone(3, (2, 1, 1)))
        assert a.disjoint(canonicalize_clopen(3, [(0, 0), (0, 2), (1,)]))
        assert not a.disjoint(a)
        assert canonicalize_clopen(3, []).disjoint(canonicalize_clopen(3, []))

    def test_subset_and_whole(self):
        assert cone(2, (0, 1)).issubset(cone(2, (0,)))
        assert whole_space(3).is_whole()
        assert not cone(3, (2,)).is_whole()


class TestEvPeriodic:
    def test_canonical_form_rotates_preperiod(self):
        assert EvPeriodicWord((0,), (1, 0)) == EvPeriodicWord((), (0, 1))

    def test_period_made_primitive(self):
        assert EvPeriodicWord((), (1, 0, 1, 0)).per == (1, 0)

    def test_examples(self):
        n2_less = lex_compare_evp(
            EvPeriodicWord((0,), (1,)), EvPeriodicWord((1,), (0,))
        )
        assert n2_less == LESS
        assert lex_compare_evp(
            EvPeriodicWord((), (0, 1)), EvPeriodicWord((0,), (1, 0))
        ) == EQUAL
        # first difference at index 2: 2333... vs 2323...
        assert lex_compare_evp(
            EvPeriodicWord((2,), (3,)), EvPeriodicWord((), (2, 3))
        ) == GREATER

    @given(
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=200)
    def test_agrees_with_prefix_comparison(self, pre1, per1, pre2, per2):
        x = EvPeriodicWord(pre1, per1)
        y = EvPeriodicWord(pre2, per2)
        a, b = x.prefix(64), y.prefix(64)
        expect = EQUAL if a == b else (LESS if a < b else GREATER)
        assert lex_compare_evp(x, y) == expect

    @given(
        st.lists(st.integers(0, 2), max_size=4),
        st.lists(st.integers(0, 2), min_size=1, max_size=4),
        st.integers(0, 12),
    )
    @settings(max_examples=200)
    def test_drop_is_the_suffix(self, pre, per, k):
        x = EvPeriodicWord(pre, per)
        assert x.drop(k).prefix(40) == x.prefix(k + 40)[k:]

    def test_long_coprime_periods_match_the_lcm_bound(self):
        # periods 61 and 67 end the comparison at max(pre) + 128 letters;
        # it used to run to max(pre) + lcm = max(pre) + 4087
        p, q = 61, 67
        w = fine_wilf_word(p, q)
        assert len(set(w)) == 2
        x, y = EvPeriodicWord((), w[:p]), EvPeriodicWord((), w[:q])
        assert first_difference(x, y) == p + q - 2
        flip = tuple(1 - a for a in w)
        periods = (w[:p], w[:q], flip[:p], flip[:q], w[1:p + 1])
        for pre1 in ((), (0,), (1, 0, 1)):
            for pre2 in ((), (0,), (1, 0, 1)):
                for per1 in periods:
                    for per2 in periods:
                        x, y = EvPeriodicWord(pre1, per1), EvPeriodicWord(pre2, per2)
                        assert lex_compare_evp(x, y) == lcm_compare(x, y)

    def test_empty_period_rejected(self):
        with pytest.raises(InvalidInput):
            EvPeriodicWord((0,), ())


class TestRotationClass:
    def test_examples(self):
        assert rotation_class_of((1, 0)).rep == (0, 1)
        assert rotation_class_of((2,)).rep == (2,)
        assert rotation_class_of((1, 2, 0)).rep == (0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            rotation_class_of(())

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(0, 5))
    def test_rotation_invariant(self, w, k):
        w = tuple(w)
        k %= len(w)
        assert rotation_class_of(w) == rotation_class_of(w[k:] + w[:k])


class TestSerialization:
    def test_word_round_trip(self):
        for w in [EMPTY, (0,), (0, 3, 1)]:
            assert parse_word(format_word(w)) == w
        assert format_word(EMPTY) == "e"

    def test_dotted(self):
        assert parse_dotted(".2") == (2, EMPTY)
        assert parse_dotted(".1,0,2") == (1, (0, 2))

    def test_evp(self):
        assert parse_evp("0|1,2") == EvPeriodicWord((0,), (1, 2))
        assert str(EvPeriodicWord((0,), (1, 2))) == "0|1,2"

    def test_gcp(self):
        assert gcp([(0, 1, 2), (0, 1), (0, 1, 0)]) == (0, 1)
        assert gcp([(1,), (2,)]) == EMPTY
