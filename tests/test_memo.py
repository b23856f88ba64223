"""Analyses memoized on a machine: every kept answer equals the same analysis
on a fresh copy of the machine, which has an empty memo, and a dropped
element or realized machine leaves no cyclic garbage."""

import gc
import types

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
from cantortx.initial import InitialTransducer, dot, minimize_initial
from cantortx.invert import inverse_core, invert_initial
from cantortx.machines import machine_T, machine_U, realize
from cantortx.group import GroupElement, group_product, invert_element
from cantortx.verify import _close_pool_products, _generator_pool


def powers(g, top):
    acc = g
    for _ in range(top):
        yield acc
        acc = group_product(acc, g)


def cases():
    """The verify pools at n = 3, 4 with their inverses, T:3^1..8 and
    U:5^1..4, as machines that validation has left analyses on."""
    for n in (3, 4):
        layers = _close_pool_products(_generator_pool(n), 3)[0]
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
        "inverse_core": inverse_core(M),
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

    def test_key_holds_the_iteration_bound(self, record_calls):
        # the rounds' bound is |Q|, read from the machine, so the plain key
        # holds it: this 4-state core needs 6 rounds, and the residual test
        # past the bound runs once; a failure is raised every time and not
        # kept
        M = parse(
            "TRANSDUCER n=4 r=0 states=1,2,3,0 initial=-\n"
            "1 0 -> 1 : 1\n1 1 -> 0 : 1\n1 2 -> 0 : 2\n1 3 -> 1 : 2\n"
            "2 0 -> 1 : 0,1,2\n2 1 -> 0 : 0,1\n2 2 -> 0 : 0,2\n2 3 -> 3 : e\n"
            "3 0 -> 1 : 0,2\n3 1 -> 0 : 0\n3 2 -> 0 : 3\n3 3 -> 1 : 3\n"
            "0 0 -> 1 : 0,1,1\n0 1 -> 0 : 0,1,1\n0 2 -> 0 : 0,1,2\n0 3 -> 2 : e\n"
        )
        calls = record_calls(("_check_clopen",))
        want = images(M)
        assert images(M) is want is M._memo["images"]
        assert len(calls["_check_clopen"]) == 1
        golden_mean = parse("TRANSDUCER n=2 r=0 states=a initial=-\n"
                            "a 0 -> a : 0\na 1 -> a : 0,1\n")
        for _ in range(2):
            with pytest.raises(NotClopenImage):
                images(golden_mean)
        assert "images" not in (golden_mean._memo or {})
        assert len(calls["_check_clopen"]) == 3

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


def referents(value):
    """Every object reachable from value through containers and instances,
    classes, modules and functions aside."""
    seen, stack = set(), [value]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(x))
        yield x
        stack.extend(gc.get_referents(x))


class TestKeptInverse:
    def test_machine_read_back_is_inverted_once(self, record_calls):
        # a machine not marked minimal keeps its minimized copy, and so the
        # inverse that copy keeps
        F = parse(serialize(realize(machine_T(3), 2)))
        calls = record_calls(("_close",))
        first = invert_initial(F)
        assert invert_initial(F) is first
        assert len(calls["_close"]) == 1
        assert minimize_initial(F) is F._memo["minimized"]
        assert "minimized" not in minimize_initial(F)._memo
        assert all(x is not F for v in F._memo.values() for x in referents(v))

    def test_plain_element_is_inverted_once(self, record_calls):
        # validation keeps the canonical core of the inverse, which every
        # inversion then reads: one closure for from_machine and two
        # inversions, and the inverse keeps nothing that refers back
        calls = record_calls(("_close",))
        g = GroupElement.from_machine(machine_U(4))
        first = invert_element(g)
        assert invert_element(g).machine is first.machine is g.machine._memo["inverse"]
        assert len(calls["_close"]) == 1
        assert all(x is not g.machine for x in referents(first.machine._memo))

    def test_equal_to_the_inverse_of_a_fresh_copy(self):
        seen = 0
        for A in realized():
            kept = A._memo["inverse"]  # left by realize's check
            assert invert_initial(A) is kept
            F = parse(serialize(A))
            assert F._memo is None
            assert invert_initial(F) == kept
            assert serialize(invert_initial(F)) == serialize(kept)
            seen += 1
        assert seen == 12

    def test_key_holds_the_cap(self, record_calls):
        # the closure needs no cap, so the plain key holds the one inverse:
        # a fresh minimal copy closes its inverse once, and a machine that
        # cannot be inverted raises every time with nothing kept
        A = realize(machine_T(3), 2)
        M = minimize_initial(parse(serialize(A)))
        calls = record_calls(("_close",))
        want = invert_initial(M)
        assert invert_initial(M) is want is M._memo["inverse"]
        assert len(calls["_close"]) == 1
        assert want == invert_initial(A) and len(want.states) > 2
        golden_mean = minimize_initial(InitialTransducer(
            2, 1, {0: ((dot(0),), "a")}, {"a": {0: ((0,), "a"), 1: ((0, 1), "a")}}
        ))
        for _ in range(2):
            with pytest.raises(NotClopenImage):
                invert_initial(golden_mean)
        assert "inverse" not in golden_mean._memo
        assert len(calls["_close"]) == 1


class TestNoCyclicGarbage:
    def test_memo_values_do_not_refer_to_their_machine(self):
        seen = 0
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            built = layers[2] + layers[3]
            for g in built + [invert_element(g) for g in layers[1] + built]:
                g.signature, g.orientation, invert_element(g)
                M = g.machine
                assert M._memo
                for value in M._memo.values():
                    assert all(x is not M for x in referents(value))
                seen += 1
        assert seen > 100

    def test_self_reference_is_seen(self):
        M = GroupElement.from_machine(machine_T(3)).machine
        assert any(x is M for x in referents({"pair": (images(M), [M])}))

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
