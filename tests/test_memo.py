"""Analyses memoized on a machine: every kept answer equals the same analysis
on a fresh copy of the machine, which has an empty memo, and a dropped
element or realized machine leaves no cyclic garbage."""

import gc

import pytest

from cantortx.transducer import memoized
from cantortx.textio import parse, serialize
from cantortx.synchronize import minimal_sync_level, sync_counts
from cantortx.images import NotClopenImage, images, non_injective_states, orientation
from cantortx.signature import (
    inverse_reduced_signature,
    member_over_roots_ordered,
    signature_report,
    validation_failure,
)
from cantortx.invert import StateExplosion, invert_initial
from cantortx.machines import machine_T, machine_U, realize
from cantortx.group import GroupElement, group_product, invert_element
from cantortx.verify import _close_pool, _generator_pool


def powers(g, top):
    acc = g
    for _ in range(top):
        yield acc
        acc = group_product(acc, g)


def cases():
    """The verify pools at n = 3, 4 with their inverses, T:3^1..8 and
    U:5^1..4, as machines that validation has left analyses on."""
    for n in (3, 4):
        layers = _close_pool(_generator_pool(n), 3)
        built = layers[1] + layers[2] + layers[3]
        yield from (g.machine for g in built)
        yield from (invert_element(g).machine for g in built)
    for make, n, top in ((machine_T, 3, 8), (machine_U, 5, 4)):
        yield from (g.machine for g in powers(GroupElement.from_machine(make(n)), top))


def answers(M):
    rep = signature_report(M)
    per = tuple(rep.per_word_m) if M.n**rep.sync_level <= 10**4 else None
    return {
        "images": images(M),
        "non_injective_states": non_injective_states(M),
        "sync_level": minimal_sync_level(M),
        "sync_counts": sync_counts(M),
        "signature": (rep.sync_level, rep.sig, rep.rsig, per),
        "orientation": orientation(M),
        "validation_failure": validation_failure(M),
        "member_ordered": [member_over_roots_ordered(M, r) for r in range(1, M.n)],
        "inverse_reduced_signature": inverse_reduced_signature(M),
    }


class TestMemoizedAnswers:
    def test_equal_to_a_fresh_copy(self):
        seen = 0
        for M in cases():
            first = answers(M)
            assert answers(M) == first  # read back from the memo
            assert answers(parse(serialize(M))) == first
            seen += 1
        assert seen > 100

    def test_answers_are_kept(self):
        M = GroupElement.from_machine(machine_T(3)).machine
        for analysis in (images, non_injective_states, sync_counts, signature_report):
            assert analysis(M) is analysis(M)

    def test_memo_is_not_part_of_equality(self):
        M = GroupElement.from_machine(machine_T(3)).machine
        F = parse(serialize(M))
        assert M._memo and F._memo is None
        assert M == F and hash(M) == hash(F)

    def test_key_holds_the_iteration_bound(self):
        # T:3^2 needs three image rounds: the default answer is kept, and a
        # smaller bound still raises, every time
        M = list(powers(GroupElement.from_machine(machine_T(3)), 2))[-1].machine
        want = images(M)
        for _ in range(2):
            with pytest.raises(NotClopenImage):
                images(M, max_iter=2)
        assert images(M) is want

    def test_exceptions_are_not_kept(self):
        calls = []

        def failing():
            calls.append(1)
            raise ValueError("no answer")

        M = machine_T(3)
        for _ in range(2):
            with pytest.raises(ValueError):
                memoized(M, "probe", failing)
        assert len(calls) == 2 and "probe" not in (M._memo or {})


def realized():
    """T:3^1..8 and U:5^1..4 realized over n - 1 roots."""
    for make, n, top in ((machine_T, 3, 8), (machine_U, 5, 4)):
        for g in powers(GroupElement.from_machine(make(n)), top):
            yield realize(g.machine, n - 1)


class TestKeptInverse:
    def test_equal_to_the_inverse_of_a_fresh_copy(self):
        seen = 0
        for A in realized():
            kept = A._memo[("inverse", 10000)]  # left by realize's check
            assert invert_initial(A) is kept
            F = parse(serialize(A))
            assert F._memo is None
            assert invert_initial(F) == kept
            assert serialize(invert_initial(F)) == serialize(kept)
            seen += 1
        assert seen == 12

    def test_key_holds_the_cap(self):
        # a cap the closure passes still raises after the default-cap
        # inverse is kept, every time, and the failure is not kept
        A = realize(machine_T(3), 2)
        want = invert_initial(A)
        assert len(want.states) > 2
        for _ in range(2):
            with pytest.raises(StateExplosion):
                invert_initial(A, cap=2)
        assert ("inverse", 2) not in A._memo
        assert invert_initial(A) is want


class TestNoCyclicGarbage:
    def test_dropped_product_element(self):
        t3 = GroupElement.from_machine(machine_T(3))
        gc.collect()
        gc.disable()
        try:
            p = group_product(t3, t3)
            p.signature, p.orientation, invert_element(p)
            del p
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_realized_machine(self):
        gc.collect()
        gc.disable()
        try:
            A = realize(machine_T(3), 2)
            invert_initial(A)
            del A
            assert gc.collect() == 0
        finally:
            gc.enable()
