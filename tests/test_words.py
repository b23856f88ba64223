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
    ClopenSet,
    EvPeriodicWord,
    InvalidInput,
    canonicalize_clopen,
    cone,
    first_difference,
    format_word,
    lex_compare_evp,
    parse_dotted,
    pairwise_disjoint,
    parse_word,
    rotation_class_of,
    whole_space,
)
from cantortx.initial import dot


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


def reference_canonicalize(n, cones):
    """The fixpoint canonicalization that the sorted stack pass replaced:
    drop every word with a proper prefix present, merge complete sibling
    families into their parent, and repeat until nothing changes."""
    s = {tuple(c) for c in cones}
    changed = True
    while changed:
        s = {w for w in s if not any(w[:k] in s for k in range(len(w)))}
        changed = False
        parents = {}
        for w in s:
            if w:
                parents.setdefault(w[:-1], set()).add(w[-1])
        for parent, kids in parents.items():
            if len(kids) == n:
                s.difference_update(parent + (i,) for i in range(n))
                s.add(parent)
                changed = True
    return ClopenSet(n, tuple(sorted(s)))


def reference_intersection(a, b):
    """The pairwise intersection: of every two cones that are nested, the
    longer one."""
    out = []
    for u in a.cones:
        for v in b.cones:
            if v[: len(u)] == u:
                out.append(v)
            elif u[: len(v)] == v:
                out.append(u)
    return reference_canonicalize(a.n, out)


def family_cones(n, rnd, depth=6, budget=60):
    """Cones of a random tree down to `depth`: a node is kept as a cone,
    dropped, or split into its children, all of them or all but one, so
    the list is dense in complete and nearly complete sibling families.
    Extensions of kept cones and repeats are mixed in, and the list is
    shuffled."""
    out = []
    todo = [EMPTY]
    while todo and len(out) < budget:
        w = todo.pop(rnd.randrange(len(todo)))
        r = rnd.random()
        if len(w) == depth or r < 0.15:
            out.append(w)
        elif r < 0.2:
            continue
        else:
            kids = [w + (i,) for i in range(n)]
            if rnd.random() < 0.4:
                del kids[rnd.randrange(n)]
            todo.extend(kids)
    for w in rnd.sample(out, len(out) // 4):
        out.append(w + tuple(rnd.randrange(n) for _ in range(rnd.randrange(3))))
    rnd.shuffle(out)
    return out


# cone lists over n = 2..5: short random words, and dense sibling families
def _any_cone_lists(n):
    return st.one_of(
        st.lists(st.lists(st.integers(0, n - 1), max_size=6).map(tuple), max_size=12),
        st.randoms(use_true_random=False).map(lambda rnd: family_cones(n, rnd)),
    )


kernel_sets = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), _any_cone_lists(n), _any_cone_lists(n))
)


def query_words(s, rnd):
    """Words to ask a set about: its cones, their prefixes and extensions,
    and random words."""
    n = s.n
    out = [EMPTY]
    for c in s.cones:
        out += [c, c[: rnd.randrange(len(c) + 1)], c + (rnd.randrange(n),)]
    out += [tuple(rnd.randrange(n) for _ in range(rnd.randrange(8))) for _ in range(20)]
    return out


class TestSortedKernel:
    """The sorted-antichain kernel against the pairwise and fixpoint
    routines it replaced."""

    @given(kernel_sets)
    @settings(max_examples=100)
    def test_canonicalize_matches_the_fixpoint(self, data):
        n, ca, cb = data
        for cones in (ca, cb, ca + cb):
            got = canonicalize_clopen(n, cones)
            assert got == reference_canonicalize(n, cones)
            assert canonicalize_clopen(n, reversed(cones)) == got

    def test_cascading_merges(self):
        # completing the last family merges up to the root
        for n in (2, 3, 5):
            cones = [w + (i,) for w in ((), (n - 1,), (n - 1, n - 1)) for i in range(n - 1)]
            assert canonicalize_clopen(n, cones + [(n - 1,) * 3]).is_whole()
            assert canonicalize_clopen(n, cones) == reference_canonicalize(n, cones)

    @given(kernel_sets, st.lists(st.integers(0, 4), max_size=4))
    @settings(max_examples=50)
    def test_shift_keeps_the_order(self, data, w):
        n, ca, _ = data
        w = tuple(a % n for a in w)
        s = canonicalize_clopen(n, ca)
        t = s.shift(w)
        assert list(t.cones) == sorted(t.cones)
        assert t == reference_canonicalize(n, [w + c for c in s.cones])

    @given(kernel_sets, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_bisected_queries_match_a_scan(self, data, rnd):
        n, ca, _ = data
        s = canonicalize_clopen(n, ca)
        for w in query_words(s, rnd):
            assert s.contains_cone(w) == any(w[: len(c)] == c for c in s.cones)
            assert s.meets_cone(w) == any(
                w[: len(c)] == c or c[: len(w)] == w for c in s.cones
            )
            x = EvPeriodicWord(w, (rnd.randrange(n),) * rnd.randrange(1, 3))
            assert s.contains_point(x) == any(x.prefix(len(c)) == c for c in s.cones)

    @given(kernel_sets)
    @settings(max_examples=80)
    def test_set_operations_match_the_pairwise_references(self, data):
        n, ca, cb = data
        a, b = canonicalize_clopen(n, ca), canonicalize_clopen(n, cb)
        meet = reference_intersection(a, b)
        assert a.intersection(b) == meet
        assert a.union(b) == reference_canonicalize(n, a.cones + b.cones)
        assert a.issubset(b) == (meet == a)
        assert a.disjoint(b) == meet.is_empty()
        thirds = [a, b, canonicalize_clopen(n, ca[::3] + cb[1::3])]
        assert pairwise_disjoint(thirds) == all(
            reference_intersection(x, y).is_empty()
            for i, x in enumerate(thirds) for y in thirds[i + 1:]
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
        # a root symbol or a float is no letter, and the error names it
        with pytest.raises(InvalidInput, match=r"\('\^', 0\)"):
            canonicalize_clopen(3, [(dot(0), 1)])
        with pytest.raises(InvalidInput, match=r"1\.0"):
            canonicalize_clopen(3, [(1.0,)])

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


def gcp(words):
    """Greatest common prefix of a nonempty list of words."""
    first, k = words[0], 0
    while k < len(first) and all(len(w) > k and w[k] == first[k] for w in words):
        k += 1
    return first[:k]


def parse_evp(text):
    """The eventually periodic word u|v, as str writes it."""
    pre, per = text.split("|")
    return EvPeriodicWord(parse_word(pre), parse_word(per))


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
