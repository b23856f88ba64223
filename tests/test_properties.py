"""Cross-module consistency: the same quantity computed along independent
routes must agree."""

import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from cantortx.words import rotation_class_of
from cantortx.initial import PENDING, minimize_initial, product_initial
from cantortx.synchronize import core
from cantortx.invert import invert_initial
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    realize,
    swap_transducer,
)
from cantortx.group import (
    GroupElement,
    canonical_core,
    group_product,
    identity_element,
    invert_element,
    is_identity,
    rotation_action,
)
from cantortx.signature import member_over_roots, signature_report, validation_failure
from cantortx.textio import parse, serialize


def elements(n):
    base = [identity_transducer(n), letter_complement(n), machine_T(n), machine_U(n)]
    if n == 4:
        base += [machine_g4(), oplus(2, swap_transducer(), 4)]
    return [GroupElement.from_machine(M) for M in base]


class TestDualRoutes:
    def test_inverse_via_realization_matches_closure(self):
        # route 1: the seeded inverse closure on the core itself
        # route 2: realize over r roots, invert the homeomorphism machine,
        #          take the core (the construction the group product mimics)
        for g in elements(3):
            r = next(r for r in range(1, 3) if member_over_roots(g.machine, r))
            via_closure = invert_element(g).machine
            A = realize(g.machine, r, ordered=False)
            via_machine = canonical_core(core(invert_initial(A)))
            assert via_closure == via_machine

    def test_equal_fast_and_slow_paths_agree(self):
        pool = elements(3)
        rng = random.Random(17)
        for _ in range(10):
            a, b = rng.choice(pool), rng.choice(pool)
            x = group_product(a, b)
            y = group_product(a, b)
            assert x == y
            assert x.machine == y.machine
            assert is_identity(group_product(x, invert_element(y)))

    def test_group_product_matches_initial_product(self):
        # multiplying cores agrees with multiplying realized machines
        T = GroupElement.from_machine(machine_T(3))
        U = GroupElement.from_machine(machine_U(3))
        A = realize(T.machine, 1)
        B = realize(U.machine, 1)
        via_initial = canonical_core(core(minimize_initial(product_initial(A, B))))
        assert via_initial == group_product(T, U).machine

    def test_rsig_of_product_via_both_routes(self):
        pool = elements(4)
        rng = random.Random(23)
        for _ in range(8):
            a, b = rng.choice(pool), rng.choice(pool)
            p = group_product(a, b)
            assert signature_report(p.machine).rsig == (a.rsig * b.rsig - 1) % 3 + 1

    def test_rotation_action_matches_inverse_element(self):
        g = GroupElement.from_machine(machine_T(4))
        gi = invert_element(g)
        for w in [(0,), (1, 3), (2, 1, 0)]:
            c = rotation_class_of(w)
            assert rotation_action(gi, rotation_action(g, c)) == c


class TestInitialProductRegions:
    def test_three_block_partition(self):
        # states pair up as (pending, pending), (done, pending), (done, done):
        # the second factor can only be past its root if the first is
        A = realize(machine_g4(), 3)
        P = product_initial(A, A)
        for (qa, qb) in P.states:
            if P.root == (qa, qb):
                continue
            if A.region[qa] is PENDING:
                assert A.region[qb] is PENDING
        assert P.region[P.root] is PENDING


class TestRealizationAcrossRoots:
    def test_every_admissible_root_count(self):
        for M in (machine_T(3), machine_U(3), letter_complement(3)):
            for r in (1, 2):
                if not member_over_roots(M, r):
                    continue
                A = realize(M, r)
                assert canonical_core(core(A)) == canonical_core(M)

    def test_reversing_composite_realizes(self):
        # exercises the letter-complement composition route on a machine
        # with more than one state
        from cantortx.images import Orientation

        T3 = GroupElement.from_machine(machine_T(3))
        flip = GroupElement.from_machine(letter_complement(3))
        rev = group_product(T3, flip)
        assert rev.orientation is Orientation.REVERSING
        for r in (1, 2):
            A = realize(rev.machine, r)
            assert canonical_core(core(A)) == rev.machine
            assert canonical_core(core(invert_initial(A))) == invert_element(rev).machine

    def test_wide_alphabet_block_sums(self):
        from cantortx.machines import cycle_transducer

        g6 = GroupElement.from_machine(oplus(3, cycle_transducer(3), 6))
        assert g6.rsig == 3
        sq = group_product(g6, g6)
        assert sq.rsig == 4  # 3*3 = 9 = 4 mod 5
        assert is_identity(group_product(g6, invert_element(g6)))

    def test_wrapper_round_trip_through_text(self):
        from cantortx import textio

        A = realize(machine_U(4), 3)
        assert textio.parse(textio.serialize(A)) == A


def generators(n):
    """T, U and pi_R at n, and at n = 4 the block sum of the swap."""
    base = [machine_T(n), machine_U(n), letter_complement(n)]
    if n == 4:
        base.append(oplus(2, swap_transducer(), 4))
    return [GroupElement.from_machine(M) for M in base]


GENERATORS = {n: generators(n) for n in (3, 4, 5)}


@st.composite
def words(draw, pieces=1, ns=tuple(GENERATORS), sizes=(8, 10)):
    """(n, the word split into `pieces` non-empty subwords), the word a list
    of sizes[0] to sizes[1] generator indices at one of the ns, by default
    8 to 10 at n = 3, 4 or 5."""
    n = draw(st.sampled_from(ns))
    letters = st.integers(0, len(GENERATORS[n]) - 1)
    word = draw(st.lists(letters, min_size=sizes[0], max_size=sizes[1]))
    cuts = sorted(draw(st.lists(st.integers(1, len(word) - 1), min_size=pieces - 1,
                                max_size=pieces - 1, unique=True)))
    return n, [word[i:j] for i, j in zip([0, *cuts], [*cuts, len(word)])]


def long_words(pieces):
    """Words of 12 to 16 generator indices at n = 5, for the laws that build
    no inverse closure."""
    return words(pieces, ns=(5,), sizes=(12, 16))


def evaluate_word(n, word):
    return reduce(group_product, [GENERATORS[n][i] for i in word])


def valid_from_scratch(g):
    """The passing verdict that g carries, checked on a fresh copy of its
    machine, whose memo is empty."""
    return validation_failure(parse(serialize(g.machine))) is None


# At 50 examples the four laws take 5 to 6.5 s together (Python 3.11 on
# 2 cores): associativity, inverse and identity 0.3 to 0.7 s each, and the
# rsig law 4 to 5 s.  About half of the associativity and rsig examples
# are n = 5 words of 12 to 16 factors, which take a few ms each; most of
# the rsig law's time is the images behind the signatures of six n = 4
# products of 126 to 336 states (1.4 s for the 288-state one).  The draws
# follow each test's source text.  Past about 50 the inverse law draws
# n = 4 words whose inverse closures are many times their inverse core: at
# 200 it takes nearly a minute.
laws = settings(max_examples=50, deadline=None, derandomize=True)


class TestGroupLaws:
    """The group laws and the multiplicativity of rsig on random words of
    length 8 to 10 in T, U, pi_R and a block sum, at n = 3..5, and the
    validity of each word's product and inverse."""

    @given(st.one_of(words(pieces=3), long_words(pieces=3)))
    @laws
    def test_associativity(self, case):
        n, (u, v, w) = case
        a, b, c = (evaluate_word(n, x) for x in (u, v, w))
        left = group_product(group_product(a, b), c)
        right = group_product(a, group_product(b, c))
        assert left.machine == right.machine == evaluate_word(n, u + v + w).machine

    @given(words())
    @laws
    def test_inverse(self, case):
        n, (word,) = case
        g = evaluate_word(n, word)
        gi = invert_element(g)
        assert is_identity(group_product(g, gi)) and is_identity(group_product(gi, g))
        assert valid_from_scratch(g) and valid_from_scratch(gi)

    @given(words())
    @laws
    def test_identity(self, case):
        n, (word,) = case
        g, e = evaluate_word(n, word), identity_element(n)
        assert group_product(g, e).machine == g.machine == group_product(e, g).machine

    @given(st.one_of(words(pieces=2), long_words(pieces=2)))
    @laws
    def test_rsig_is_multiplicative(self, case):
        n, (u, v) = case
        a, b = evaluate_word(n, u), evaluate_word(n, v)
        assert group_product(a, b).rsig == (a.rsig * b.rsig - 1) % (n - 1) + 1
