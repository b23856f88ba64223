import math
import random
from itertools import product as cartesian

import pytest

from cantortx.words import InvalidInput
from cantortx.transducer import VALID, Transducer, evaluate
from cantortx.images import images
from cantortx.invert import inverse_closure, is_bisynchronizing_core
from cantortx.synchronize import (
    NotSynchronizing,
    canonical_core,
    is_synchronizing,
    minimal_sync_level,
)
from cantortx.signature import (
    PerWordM,
    _count_outputs_with_prefix,
    divisors_generate_units,
    inverse_reduced_signature,
    member_over_roots,
    member_over_roots_ordered,
    membership_monotonicity_check,
    residue,
    signature_class_partition,
    signature_report,
    subgroup_generated,
    units,
    units_fixing_subgroup,
    validation_failure,
    verify_lcm_claim,
)
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    swap_transducer,
    cycle_transducer,
    state_wrapper,
)
from cantortx.group import GroupElement, group_product, invert_element
from cantortx.textio import parse, serialize


class TestSignature:
    def test_g(self):
        rep = signature_report(machine_g4())
        assert rep.sync_level == 1
        assert rep.per_word_m == (2, 2, 2, 2)
        assert rep.sig == 8
        assert rep.rsig == 2

    def test_identity(self):
        for n in (2, 3, 5):
            rep = signature_report(identity_transducer(n))
            assert rep.sync_level == 0 and rep.sig == 1 and rep.rsig == 1

    def test_letter_complement(self):
        assert signature_report(letter_complement(4)).rsig == 1

    def test_block_sum(self):
        assert signature_report(oplus(2, swap_transducer(), 4)).rsig == 2
        assert signature_report(oplus(2, swap_transducer(), 6)).rsig == 2
        assert signature_report(oplus(3, cycle_transducer(3), 6)).rsig == 3

    def test_preconditions_named(self):
        from cantortx.transducer import Transducer

        swap_states = Transducer(
            2,
            {
                "s": {0: ((0,), "t"), 1: ((1,), "t")},
                "t": {0: ((0,), "s"), 1: ((1,), "s")},
            },
        )
        with pytest.raises(NotSynchronizing, match="^signature needs a synchronizing machine$"):
            signature_report(swap_states)

    def test_report_runs_the_collapse_once(self, record_calls):
        calls = record_calls(("sync_counts", "is_synchronizing", "_collapse_rounds"))
        assert signature_report(machine_T(3)).sync_level == 2
        assert len(calls["sync_counts"]) == 1
        assert len(calls["is_synchronizing"]) == 0
        assert len(calls["_collapse_rounds"]) == 1

    def test_residue_convention(self):
        # residues live in 1..n-1, never 0
        assert residue(6, 4) == 3
        assert residue(7, 4) == 1
        assert residue(1, 2) == 1  # n=2 edge case: the single residue


def forced_state(T, word):
    """The state that `word` forces: where it ends from every state."""
    (q,) = {evaluate(T, p, word)[1] for p in T.states}
    return q


def reference_signature(T):
    """(sync level, sig, rsig, per-word m) by enumerating every word of the
    sync level and reading the m of the state it forces."""
    k = minimal_sync_level(T)
    img = images(T)
    per = tuple(
        len(img[forced_state(T, word)].cones) for word in cartesian(range(T.n), repeat=k)
    )
    return k, sum(per), residue(sum(per), T.n), per


def powers(g, top):
    acc = g
    for _ in range(top):
        yield acc
        acc = group_product(acc, g)


def counted_cases():
    yield machine_g4()
    yield identity_transducer(3)
    yield oplus(2, swap_transducer(), 4)
    yield oplus(2, swap_transducer(), 6)
    yield oplus(3, cycle_transducer(3), 6)
    for n in (3, 4, 5):
        for make in (machine_T, machine_U):
            for p in powers(GroupElement.from_machine(make(n)), 12):
                if n ** minimal_sync_level(p.machine) > 10**4:
                    break
                yield p.machine
    rng = random.Random(11)
    gens = [GroupElement.from_machine(make(4)) for make in (machine_T, machine_U)]
    gens += [invert_element(g) for g in gens]
    for _ in range(6):
        acc = rng.choice(gens)
        for _ in range(rng.randrange(1, 4)):
            acc = group_product(acc, rng.choice(gens))
        yield acc.machine


class TestCountedSignature:
    def test_matches_word_enumeration(self):
        seen = 0
        for M in counted_cases():
            rep = signature_report(M)
            k, sig, rsig, per = reference_signature(M)
            assert (rep.sync_level, rep.sig, rep.rsig) == (k, sig, rsig)
            assert tuple(rep.per_word_m) == per
            seen += 1
        assert seen > 20

    def test_level_zero_has_one_word(self):
        for M in (identity_transducer(2), identity_transducer(5)):
            rep = signature_report(M)
            assert rep.sync_level == 0 and len(rep.per_word_m) == 1
            assert rep.per_word_m == (1,)

    def test_lazy_sequence(self):
        t3 = GroupElement.from_machine(machine_T(3))
        M = group_product(group_product(t3, t3), t3).machine
        rep = signature_report(M)
        per, ref = rep.per_word_m, reference_signature(M)[3]
        assert isinstance(per, PerWordM) and per.level == rep.sync_level >= 3
        assert len(per) == len(ref) == 3**per.level
        assert [per[i] for i in range(len(ref))] == list(ref)
        assert [per[-i] for i in range(1, len(ref) + 1)] == list(reversed(ref))
        for bad in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                per[bad]
        assert per == ref and ref == per and per == list(ref) and list(ref) == per
        assert per != ref[:-1] and per != ref[:-1] + (ref[-1] + 1,)
        assert per != set(ref)
        assert sum(per) == rep.sig

    def test_deep_sync_level_without_enumeration(self):
        # 12 alternating factors of T:5 and U:5: sync level 14, so 5^14 words
        t5, u5 = (GroupElement.from_machine(make(5)) for make in (machine_T, machine_U))
        factors = [t5 if i % 2 == 0 else u5 for i in range(12)]
        acc = factors[0]
        for f in factors[1:]:
            acc = group_product(acc, f)
        rep = signature_report(acc.machine)
        assert rep.sync_level == 14
        assert len(rep.per_word_m) == 5**14
        assert rep.rsig == residue(math.prod(f.rsig for f in factors), 5)
        assert rep.per_word_m[0] >= 1 and rep.per_word_m[-1] >= 1


class TestInverseSignature:
    def test_involution(self):
        assert inverse_reduced_signature(machine_g4()) == 2

    def test_identity(self):
        assert inverse_reduced_signature(identity_transducer(3)) == 1

    def test_matches_inverse_element(self):
        U3 = GroupElement.from_machine(machine_U(3))
        assert inverse_reduced_signature(U3.machine) == invert_element(U3).rsig


class TestMembership:
    def test_g_only_at_three(self):
        g = machine_g4()
        assert [member_over_roots_ordered(g, r) for r in (1, 2, 3)] == [False, False, True]
        assert [member_over_roots(g, r) for r in (1, 2, 3)] == [False, False, True]

    def test_identity_everywhere(self):
        for n in (2, 3, 4):
            I = identity_transducer(n)
            for r in range(1, n):
                assert member_over_roots(I, r)
                assert member_over_roots_ordered(I, r)

    def test_block_sum_at_three(self):
        assert member_over_roots(oplus(2, swap_transducer(), 4), 3)
        # the block sum mixes the order, so the ordered variant fails
        assert not member_over_roots_ordered(oplus(2, swap_transducer(), 4), 3)

    def test_infinite_order_elements_at_one(self):
        for n in (3, 4, 5):
            assert member_over_roots_ordered(machine_T(n), 1)
            assert member_over_roots_ordered(machine_U(n), 1)

    def test_complement_everywhere(self):
        for n in (3, 4, 6):
            piR = letter_complement(n)
            for r in range(1, n):
                assert member_over_roots_ordered(piR, r)

    def test_invalid_inputs_reasoned_false(self):
        from cantortx.transducer import Transducer

        not_core = Transducer(
            2,
            {
                "extra": {0: ((0,), "id"), 1: ((1,), "id")},
                "id": {0: ((0,), "id"), 1: ((1,), "id")},
            },
        )
        assert validation_failure(not_core) is not None
        assert not member_over_roots(not_core, 1)
        # a one-state machine whose letter-0 loop outputs nothing
        empty_cycle = Transducer(2, {"a": {0: ((), "a"), 1: ((0,), "a")}})
        reason = "cycle through state 'a' outputs the empty word"
        assert validation_failure(empty_cycle) == reason
        assert not member_over_roots(empty_cycle, 1)
        assert not member_over_roots_ordered(empty_cycle, 1)

    def test_root_count_range_checked(self):
        with pytest.raises(InvalidInput):
            member_over_roots(identity_transducer(4), 4)

    def test_one_images_call_per_ordered_membership(self, record_calls):
        # one image fixpoint serves every membership query on a machine
        calls = record_calls(("_fixpoint",))
        for M in (machine_T(3), machine_U(5), machine_g4()):
            calls.clear()
            for r in range(1, M.n):
                member_over_roots_ordered(M, r)
                member_over_roots(M, r)
            assert len(calls["_fixpoint"]) == 1

    def test_membership_synchronizes_once(self, record_calls):
        # validation reads the core from the sync level, and only the
        # signature counts the words
        calls = record_calls(("_counts", "_core_failure"))
        T = machine_T(3)
        assert member_over_roots(T, 1)
        assert len(calls["_counts"]) == 1
        assert len(calls["_core_failure"]) == 1
        assert "inverse" in T._memo

    def test_answers_equal_the_composed_definition_on_the_verify_pool(self):
        from cantortx.images import Orientation, orientation
        from cantortx.verify import _close_pool_products, _generator_pool

        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            for X in layers[1] + layers[2] + layers[3]:
                M = X.machine
                valid = validation_failure(M) is None
                for r in range(1, n):
                    plain = valid and (r * (signature_report(M).sig - 1)) % (n - 1) == 0
                    ordered = plain and orientation(M) in (
                        Orientation.PRESERVING,
                        Orientation.REVERSING,
                    )
                    assert member_over_roots(M, r) == plain
                    assert member_over_roots_ordered(M, r) == ordered

    def test_kernel_statement(self):
        # membership at a single root is exactly reduced signature one
        for M in (machine_g4(), machine_T(4), machine_U(4),
                  oplus(2, swap_transducer(), 4), letter_complement(4),
                  identity_transducer(4)):
            assert member_over_roots(M, 1) == (signature_report(M).rsig == 1)


class TestClassPartition:
    def test_published_n7_classes(self):
        got = signature_class_partition(7, {1, 5})
        assert got == {frozenset({1, 2, 4, 5}), frozenset({3, 6})}

    def test_trivial_signature_set(self):
        assert signature_class_partition(4, {1}) == {frozenset({1, 2, 3})}

    def test_n4_with_two(self):
        assert signature_class_partition(4, {1, 2}) == {
            frozenset({1, 2}),
            frozenset({3}),
        }

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidInput):
            signature_class_partition(7, {3})


class TestUnitsLattice:
    def test_fixing_subgroups_mod6(self):
        assert units_fixing_subgroup(6, 3) == {1, 5}
        assert units_fixing_subgroup(6, 1) == {1}
        assert units_fixing_subgroup(6, 2) == {1}
        assert units_fixing_subgroup(6, 6) == {1, 5}

    def test_fixing_depends_on_gcd(self):
        for m in (6, 8, 12):
            for i in range(1, m + 1):
                assert units_fixing_subgroup(m, i) == units_fixing_subgroup(
                    m, math.gcd(i, m)
                )

    def test_closed_form_matches_the_definition(self):
        for m in range(1, 81):
            for i in range(0, 2 * m + 2):
                want = {a for a in units(m) if (a * i) % m == i % m}
                assert units_fixing_subgroup(m, i) == want, (m, i)

    def test_lcm_claim_sample(self):
        for m, i, j in ((6, 2, 3), (12, 4, 6), (30, 6, 10), (16, 2, 8)):
            assert verify_lcm_claim(m, i, j)

    def test_lcm_claim_reads_only_the_gcds(self):
        # the units-lattice check looks each verdict up by these gcds
        for m in range(1, 31):
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert verify_lcm_claim(m, i, j) == verify_lcm_claim(
                        m, math.gcd(i, m), math.gcd(j, m)
                    ), (m, i, j)

    def test_divisors_generate_units_family(self):
        for n in (4, 10, 28):
            assert divisors_generate_units(n)
        # 2^5: divisors {1,2,4,8,16,32} mod 31 generate <2> of order 5 < 30
        assert not divisors_generate_units(32)

    def test_subgroup_generated(self):
        assert subgroup_generated(9, {2}) == {1, 2, 4, 8, 7, 5}
        assert subgroup_generated(1, {0}) == {0}


def reference_monotonicity(T, i, j):
    """The check as it was: one membership test per root count it reads."""
    m = T.n - 1
    ok = True
    if member_over_roots(T, i) and any((k * i) % m == j % m for k in range(m)):
        ok = ok and member_over_roots(T, j)
    d = residue(math.gcd(j, m), T.n)
    return ok and (member_over_roots(T, j) == member_over_roots(T, d))


class TestMonotonicity:
    def test_validates_once_per_call(self, record_calls):
        constant = Transducer(4, {"q": {i: ((0,), "q") for i in range(4)}})
        machines = (machine_T(4), machine_U(4), machine_g4(), letter_complement(4), constant)
        # the reference runs on copies, so these machines' memos stay empty
        want = {(M, i, j): reference_monotonicity(parse(serialize(M)), i, j)
                for M in machines for i in range(1, 4) for j in range(1, 4)}
        calls = record_calls(("_counts", "_core_failure"))
        for (M, i, j), expect in want.items():
            assert membership_monotonicity_check(M, i, j) == expect
        # each machine is validated once over its nine calls, and the words
        # are counted once for each of the four valid ones, whose signature
        # is read; the constant machine fails validation on its image
        assert len(calls["_core_failure"]) == 5
        assert len(calls["_counts"]) == 4

    def test_membership_lattice_validation_count(self, record_calls):
        from cantortx.verify import check_membership_lattice

        calls = record_calls(("_core_failure",))
        assert check_membership_lattice() == (True, "lattice laws hold")
        # the ten pool elements, validated once when the pools are built
        assert len(calls["_core_failure"]) == 10  # 262, then 80 validations

    def test_root_counts_out_of_range(self):
        for i, j in ((0, 1), (1, 0), (4, 1), (1, 4)):
            with pytest.raises(InvalidInput, match="root count must be in 1..3"):
                membership_monotonicity_check(machine_T(4), i, j)

    def test_examples(self):
        g = machine_g4()
        assert membership_monotonicity_check(g, 3, 3)
        for n in (3, 4):
            I = identity_transducer(n)
            for i in range(1, n):
                for j in range(1, n):
                    assert membership_monotonicity_check(I, i, j)

    def test_pool_at_n4(self):
        for M in (machine_g4(), machine_T(4), machine_U(4),
                  oplus(2, swap_transducer(), 4), letter_complement(4)):
            for i in range(1, 4):
                for j in range(1, 4):
                    assert membership_monotonicity_check(M, i, j)


# --- one validation, one images call, one closure ----------------------------


def xor_machine():
    # outputs each letter xor the one before: synchronizing core, every
    # state a homeomorphism, but the inverse has to remember every letter
    return Transducer(
        2,
        {
            "a": {0: ((0,), "a"), 1: ((1,), "b")},
            "b": {0: ((1,), "a"), 1: ((0,), "b")},
        },
    )


def swapping_machine():
    # the state flips on every letter, so no word synchronizes it
    return Transducer(
        2,
        {
            "a": {0: ((0,), "b"), 1: ((1,), "b")},
            "b": {0: ((0,), "a"), 1: ((1,), "a")},
        },
    )


def extra_state_machine():
    return Transducer(
        2,
        {
            "extra": {0: ((0,), "id"), 1: ((1,), "id")},
            "id": {0: ((0,), "id"), 1: ((1,), "id")},
        },
    )


def overlap_machine():
    # "b" has overlapping branch images and "a" reaches it
    return Transducer(
        2,
        {
            "a": {0: ((0,), "a"), 1: ((1,), "b")},
            "b": {0: ((), "a"), 1: ((1,), "b")},
        },
    )


class TestSharedValidation:
    def check(self, T, reason, keeps_inverse):
        assert validation_failure(T) == reason
        # the verdict is memoized, and so is the inverse that decided it
        memo = T._memo or {}
        if isinstance(T, Transducer):
            assert memo[VALID] == reason
        assert ("inverse" in memo) == keeps_inverse
        if keeps_inverse:
            assert memo["inverse"] == canonical_core(inverse_closure(T))
        assert validation_failure(T) == reason

    def test_reason_and_analyses_per_failure_kind(self):
        self.check(state_wrapper(machine_T(3), "a", 1), "not a plain transducer", False)
        self.check(swapping_machine(), "not synchronizing", False)
        self.check(
            extra_state_machine(),
            "not core: some states are not forced by long words",
            False,
        )
        self.check(overlap_machine(), "state 'a' is not injective", False)
        self.check(xor_machine(), "the inverse is not synchronizing", False)
        self.check(machine_g4(), None, True)
        self.check(machine_U(4), None, True)

    def test_not_clopen_within_the_bound(self):
        # a one-state core whose image, the golden-mean shift, is closed but
        # not open: its image rounds pass the bound of |Q| = 1 rounds
        # without settling, and the residual test past it decides
        golden_mean = Transducer(2, {"a": {0: ((0,), "a"), 1: ((0, 1), "a")}})
        self.check(golden_mean, "some state image is not clopen", False)

    def test_non_injective_machine_has_no_closure(self):
        T = overlap_machine()
        assert is_synchronizing(T)
        with pytest.raises(InvalidInput, match="^state 'a' is not injective$"):
            inverse_closure(T)
        assert not is_bisynchronizing_core(T)

    def test_invert_element_at_every_root(self):
        # the kept inverse is the canonical core of the closure at any root
        for make, n, k in ((machine_T, 3, 3), (machine_U, 4, 2)):
            g = list(powers(GroupElement.from_machine(make(n)), k))[-1]
            want = invert_element(g).machine
            for q in g.machine.states:
                assert canonical_core(inverse_closure(g.machine, q)) == want

    def test_inverse_rsig_on_the_verify_pool(self):
        from cantortx.verify import _close_pool_products, _generator_pool

        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            for X in layers[1] + layers[2] + layers[3]:
                assert inverse_reduced_signature(X.machine) == invert_element(X).rsig


class TestCountOutputsWithPrefix:
    def test_matches_input_enumeration(self):
        cases = [machine_g4()]
        for make, n, top in ((machine_T, 3, 4), (machine_U, 4, 3)):
            cases += [p.machine for p in powers(GroupElement.from_machine(make(n)), top)]
        for M in cases:
            n = M.n
            prefixes = [()] + [tuple(w) for d in (1, 2, 3) for w in cartesian(range(n), repeat=d)]
            for q in M.states:
                for j in range(5 if n == 3 else 4):
                    outs = [evaluate(M, q, x)[0] for x in cartesian(range(n), repeat=j)]
                    for v in prefixes:
                        want = sum(1 for out in outs if out[: len(v)] == v)
                        assert _count_outputs_with_prefix(M, q, j, v) == want
