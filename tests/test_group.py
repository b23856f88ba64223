import random
from itertools import product as cartesian

import pytest

from cantortx.words import InvalidInput, rotation_class_of
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    swap_transducer,
)
from cantortx.transducer import (
    MINIMAL,
    Transducer,
    bfs_numbering,
    least_numbering,
    marked,
    minimize_rooted,
    product,
)
from cantortx.initial import minimize_initial
from cantortx.textio import parse, serialize
from cantortx.images import Orientation, orientation
from cantortx.invert import inverse_closure
from cantortx.signature import signature_report, validation_failure
from cantortx.group import (
    CoreInvariantError,
    GroupElement,
    canonical_core,
    commutator_word,
    element_order,
    evaluate_group_word,
    group_product,
    identity_element,
    invert_element,
    is_identity,
    loop_state,
    orbit_lengths,
    rotation_action,
    verify_relation,
)


def pool(n):
    base = [identity_transducer(n), letter_complement(n)]
    if n == 4:
        base.append(machine_g4())
    if n >= 3:
        base += [machine_T(n), machine_U(n)]
    return [GroupElement.from_machine(M) for M in base]


class TestProductAndEquality:
    def test_g_squared(self):
        g = GroupElement.from_machine(machine_g4())
        assert is_identity(group_product(g, g))

    def test_identity_laws(self):
        for h in pool(3):
            e = identity_element(3)
            assert group_product(e, h) == h
            assert group_product(h, e) == h

    def test_inverse_laws(self):
        for h in pool(4):
            assert is_identity(group_product(h, invert_element(h)))
            assert is_identity(group_product(invert_element(h), h))

    def test_sampled_associativity(self):
        elems = pool(3)
        rng = random.Random(9)
        for _ in range(6):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert group_product(group_product(a, b), c) == group_product(
                a, group_product(b, c)
            )

    def test_equal_is_consistent_with_product(self):
        def same(a, b):  # the defining criterion: a b^-1 is the identity
            return is_identity(group_product(a, invert_element(b)))

        g = GroupElement.from_machine(machine_g4())
        e = identity_element(4)
        assert g == g and same(g, g)
        assert g != e and not same(g, e)
        assert group_product(g, g) == e and same(group_product(g, g), e)
        # the defining criterion agrees with the canonical comparison
        T = GroupElement.from_machine(machine_T(3))
        assert T != invert_element(T) and not same(T, invert_element(T))

    def test_hash_separates_machines_of_one_size(self):
        from cantortx.verify import _close_pool_products, _generator_pool

        layers = _close_pool_products(_generator_pool(3), 3)[0]
        by_size = {}
        for g in layers[1] + layers[2] + layers[3]:
            by_size.setdefault(len(g.machine.states), []).append(g)
        shared = [gs for gs in by_size.values() if len(gs) > 1]
        assert shared
        for gs in shared:
            assert len({hash(g) for g in gs}) > 1
            assert len({hash(g) for g in gs}) == len(set(gs)) == len(gs)
        for g in layers[2]:
            twin = GroupElement(canonical_core(g.machine))
            assert twin == g and hash(twin) == hash(g) == hash(g.machine)

    def test_alphabet_mismatch(self):
        with pytest.raises(InvalidInput):
            group_product(identity_element(2), identity_element(3))


class TestOrder:
    def test_examples(self):
        g = GroupElement.from_machine(machine_g4())
        assert element_order(g, 8).value == 2
        assert element_order(identity_element(3), 8).value == 1
        res = element_order(GroupElement.from_machine(machine_T(3)), 16)
        assert not res.finite
        assert len(res.growth) >= 2

    def test_the_bound_is_the_last_power_tested(self):
        # g^bound is tested and g^(bound+1) is never formed
        res = element_order(GroupElement.from_machine(machine_T(3)), 31)
        assert not res.finite
        assert len(res.growth) == 31 and res.growth[-1] == 33
        piR = GroupElement.from_machine(letter_complement(3))
        assert not element_order(piR, 1).finite
        assert repr(element_order(piR, 2)) == "Finite(2)"

    def test_state_cap_stops_growth(self):
        T = GroupElement.from_machine(machine_T(3))
        res = element_order(T, 10**6, state_cap=8)
        assert not res.finite
        # the loop stops at the first power past the cap: 9 > 8 states
        assert res.growth == (3, 4, 5, 6, 7, 8, 9)


class TestLongWords:
    def test_n4_word_past_the_old_closure_cap(self):
        # U.B.B.pi_R.B.U.B.B.B at n = 4, B the block sum of the swap: its
        # 224-state core has an inverse closure of 15,072 states, past the
        # 10,000 at which the closure once stopped
        U, B, piR = (GroupElement.from_machine(M) for M in
                     (machine_U(4), oplus(2, swap_transducer(), 4), letter_complement(4)))
        g = U
        for h in (B, B, piR, B, U, B, B, B):
            g = group_product(g, h)
        assert len(g.machine.states) == 224 and g.rsig == 1


class TestRotationAction:
    def test_T_pushes_the_mixed_class(self):
        T = GroupElement.from_machine(machine_T(3))
        assert rotation_action(T, rotation_class_of((1, 2))) == rotation_class_of(
            (1, 2, 2)
        )

    def test_identity_fixes_everything(self):
        I = identity_element(3)
        for w in [(0,), (1, 2), (0, 1, 2)]:
            c = rotation_class_of(w)
            assert rotation_action(I, c) == c

    def test_g_swaps_middle_letters(self):
        g = GroupElement.from_machine(machine_g4())
        one, two = rotation_class_of((1,)), rotation_class_of((2,))
        assert rotation_action(g, one) == two
        assert rotation_action(g, two) == one

    def test_orbit_lengths(self):
        T = GroupElement.from_machine(machine_T(3))
        assert orbit_lengths(T, rotation_class_of((1, 2)), 4) == [2, 3, 4, 5, 6]
        g = GroupElement.from_machine(machine_g4())
        assert orbit_lengths(g, rotation_class_of((1,)), 4) == [1, 1, 1, 1, 1]
        I = identity_element(3)
        assert orbit_lengths(I, rotation_class_of((0, 1)), 3) == [2, 2, 2, 2]

    def test_action_composes(self):
        # input flows through the left factor first
        T = GroupElement.from_machine(machine_T(3))
        U = GroupElement.from_machine(machine_U(3))
        TU = group_product(T, U)
        for w in [(0,), (1,), (1, 2), (0, 1, 2), (2, 2, 1)]:
            c = rotation_class_of(w)
            assert rotation_action(TU, c) == rotation_action(U, rotation_action(T, c))

    def test_action_inverts(self):
        T = GroupElement.from_machine(machine_T(3))
        Ti = invert_element(T)
        for k in range(1, 5):
            for w in cartesian(range(3), repeat=k):
                c = rotation_class_of(w)
                assert rotation_action(Ti, rotation_action(T, c)) == c

    def test_well_defined_on_rotations(self):
        T = GroupElement.from_machine(machine_T(4))
        w = (0, 1, 3)
        expect = rotation_action(T, rotation_class_of(w))
        for k in range(3):
            rot = w[k:] + w[:k]
            assert rotation_action(T, rotation_class_of(rot)) == expect


class TestWordsAndRelations:
    def test_f_relations(self):
        gens = {
            "T": GroupElement.from_machine(machine_T(3)),
            "U": GroupElement.from_machine(machine_U(3)),
        }
        p = [("U", -1), ("T", 1)]
        q1 = [("T", 1), ("U", 1), ("T", -1)]
        q2 = [("T", 1), ("T", 1), ("U", 1), ("T", -1), ("T", -1)]
        assert verify_relation(gens, commutator_word(p, q1))
        assert verify_relation(gens, commutator_word(p, q2))

    def test_trivial_relation(self):
        gens = {"T": GroupElement.from_machine(machine_T(3))}
        assert verify_relation(gens, [("T", 1), ("T", -1)])

    def test_unknown_generator(self):
        with pytest.raises(InvalidInput):
            evaluate_group_word({}, [("X", 1)])


def boundary_classes(g):
    """The rotation classes of 0 and n-1, and their images under g."""
    lo, hi = rotation_class_of((0,)), rotation_class_of((g.n - 1,))
    return (lo, hi), (rotation_action(g, lo), rotation_action(g, hi))


class TestZeroFixing:
    """Orientation-preserving elements fix the rotation classes of 0 and
    n-1; reversing elements swap them."""

    def test_examples(self):
        g = GroupElement.from_machine(machine_g4())
        (lo, hi), moved = boundary_classes(g)
        assert moved == (lo, hi)
        piR = GroupElement.from_machine(letter_complement(4))
        (lo, hi), moved = boundary_classes(piR)
        assert moved == (hi, lo)
        for n in (3, 4):
            T = GroupElement.from_machine(machine_T(n))
            (lo, hi), moved = boundary_classes(T)
            assert moved == (lo, hi)

    def test_agrees_with_orientation(self):
        for h in pool(4):
            (lo, hi), moved = boundary_classes(h)
            if h.orientation is Orientation.PRESERVING:
                assert moved == (lo, hi)
            elif h.orientation is Orientation.REVERSING:
                assert moved == (hi, lo)

    def test_unordered_element_rejected(self):
        # neither order: the boundary classes move to interior classes
        M = GroupElement.from_machine(oplus(2, swap_transducer(), 4))
        assert M.orientation is Orientation.NEITHER
        (lo, hi), moved = boundary_classes(M)
        assert moved not in ((lo, hi), (hi, lo))


class TestCoreInvariantError:
    def test_no_unique_loop_state(self):
        # two separate identity states: every word loops at both
        T = Transducer(2, {q: {0: ((0,), q), 1: ((1,), q)} for q in ("a", "b")})
        with pytest.raises(CoreInvariantError, match="exactly one loop state for \\(0,\\), found 2"):
            loop_state(T, (0,))
        with pytest.raises(CoreInvariantError):
            rotation_action(GroupElement(T), rotation_class_of((0, 1)))

    def test_named_domain_error(self):
        import cantortx
        from cantortx.cli import DOMAIN_ERRORS

        assert issubclass(CoreInvariantError, RuntimeError)
        assert CoreInvariantError in DOMAIN_ERRORS
        assert cantortx.CoreInvariantError is CoreInvariantError


def least_numbering_reference(rows):
    """The numbering as it stood before the starts ran in step: every
    start's whole renamed table is built, and the first least one wins."""
    best = None
    for start in rows:
        names = bfs_numbering(rows, [start])
        key = tuple((w, names[p]) for q in names for w, p in rows[q])
        if best is None or key < best[0]:
            best = (key, names)
    return best[1]


def power_pool():
    """Powers 1..16 of T and U at n = 3 and 5."""
    out = []
    for n in (3, 5):
        for make in (machine_T, machine_U):
            g = acc = GroupElement.from_machine(make(n))
            for _ in range(16):
                out.append(acc)
                acc = group_product(acc, g)
    return out


def verify_pool():
    """The verify suite's pools at n = 3 and 4: products of up to three
    generators."""
    from cantortx.verify import _close_pool_products, _generator_pool

    out = []
    for n in (3, 4):
        layers = _close_pool_products(_generator_pool(n), 3)[0]
        out += layers[1] + layers[2] + layers[3]
    return out


class TestLeastNumbering:
    """The in-step numbering picks the all-starts reference's numbering, on
    canonical rows and on the same rows with the states renamed in a
    shuffled order, so that the least start is not always the first."""

    def check(self, elements):
        rng = random.Random(18)
        for g in elements:
            rows = g.machine._rows
            states = list(rows)
            rng.shuffle(states)
            rename = {q: f"s{k}" for k, q in enumerate(states)}
            shuffled = {rename[q]: tuple((w, rename[p]) for w, p in rows[q]) for q in states}
            for table in (rows, shuffled):
                assert list(least_numbering(table).items()) == list(
                    least_numbering_reference(table).items())

    def test_matches_all_starts_on_the_verify_pools(self):
        self.check(verify_pool())

    def test_matches_all_starts_on_powers(self):
        self.check(power_pool())


class TestMinimalCores:
    """canonical_core of a machine marked minimal skips the merge of its
    core, and gives the machine that the merge gives."""

    def test_minimized_products(self):
        elements = power_pool()[:32] + verify_pool()[:40]
        for g, h in zip(elements, elements[1:] + elements[:1]):
            if g.n != h.n:
                continue
            root = (g.machine.states[0], h.machine.states[0])
            M, _ = minimize_rooted(product(g.machine, h.machine), root)
            unmarked = Transducer._from_rows(M.n, M._rows)
            assert marked(M, MINIMAL) and unmarked._memo is None
            assert serialize(canonical_core(M)) == serialize(canonical_core(unmarked))

    def test_minimal_initial_machines(self):
        from cantortx.machines import realize

        for M in (machine_T(3), machine_U(3), machine_T(4), machine_g4()):
            A = realize(M, M.n - 1)
            assert minimize_initial(A) is A
            assert serialize(canonical_core(A)) == serialize(canonical_core(parse(serialize(A))))


class TestProductWork:
    """A group product of valid elements runs no collapse: its minimized
    product is marked synchronizing, so canonical_core reads the core from
    the letter-0 walk, and the product of valid elements is valid, so
    neither its canonical core nor an inverse closure is synchronized.  Its
    VALID mark says that it synchronizes, so an orbit step collapses
    nothing, and the result's signature then collapses the canonical core
    once."""

    def test_sync_calls(self, record_calls):
        t3 = GroupElement.from_machine(machine_T(3))
        acc = t3
        for _ in range(7):
            acc = group_product(acc, t3)
        calls = record_calls(("sync_counts", "is_synchronizing", "_sync_level", "_collapse_rounds"))
        result = group_product(acc, t3)
        assert len(result.machine.states) == 11
        assert len(calls["sync_counts"]) == 0
        # core_states reads the minimized product's SYNCHRONIZING mark once
        assert len(calls["is_synchronizing"]) == 1
        assert len(calls["_sync_level"]) == 0
        assert len(calls["_collapse_rounds"]) == 0
        rotation_action(result, rotation_class_of((1, 2)))
        assert len(calls["_collapse_rounds"]) == 0
        result.signature
        assert len(calls["sync_counts"]) == 1
        assert len(calls["_collapse_rounds"]) == 1

    def test_valid_factors_build_no_inverse_closure(self, record_calls):
        t3 = GroupElement.from_machine(machine_T(3))
        p = group_product(t3, t3)
        calls = record_calls(("inverse_closure", "_core_failure"))
        q = group_product(p, t3)
        assert calls["inverse_closure"] == calls["_core_failure"] == []
        assert validation_failure(q.machine) is None

    def test_invalid_raw_factor_is_a_domain_error(self):
        swapping = Transducer(2, {"s": {0: ((0,), "t"), 1: ((1,), "t")},
                                  "t": {0: ((0,), "s"), 1: ((1,), "s")}})
        t3 = GroupElement.from_machine(machine_T(3))
        for g, h in ((GroupElement(swapping), t3), (t3, GroupElement(swapping))):
            with pytest.raises(InvalidInput,
                               match="not a valid core element: not synchronizing"):
                group_product(g, h)


class TestCarriedImages:
    """The analyses that validation computes for from_machine, and for a
    raw element in group_product or invert_element, stay memoized on the
    element's machine, and the signature, the orientation and the inverse
    read them."""

    def test_analyses_match_the_checked_path_on_the_verify_pools(self):
        from cantortx.verify import _close_pool_products, _generator_pool

        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            built = layers[1] + layers[2] + layers[3]
            for g in built + [invert_element(g) for g in built]:
                got, want = g.signature, signature_report(g.machine)
                assert (got.sync_level, got.sig, got.rsig) == (
                    want.sync_level, want.sig, want.rsig)
                if n**want.sync_level <= 10**4:
                    assert tuple(got.per_word_m) == tuple(want.per_word_m)
                assert g.orientation is orientation(g.machine)

    def test_inverse_and_signature_skip_validation(self, record_calls):
        t3 = GroupElement.from_machine(machine_T(3))
        p = group_product(group_product(t3, t3), t3)
        calls = record_calls(("_core_failure", "_fixpoint"))
        inverse = invert_element(p)
        # p's verdict is memoized and the inverse of a valid element
        # carries a passing verdict, so nothing is validated; the one image
        # fixpoint is p's, which the closure reads
        assert calls["_core_failure"] == []
        assert [c["M"] for c in calls["_fixpoint"]] == [p.machine]
        assert validation_failure(inverse.machine) is None
        calls.clear()
        assert p.signature.sync_level == 4
        assert p.orientation is Orientation.PRESERVING
        assert len(calls["_fixpoint"]) == 0
        assert is_identity(group_product(p, inverse))

    def test_raw_element_is_validated_before_inversion(self):
        swapping = Transducer(2, {"s": {0: ((0,), "t"), 1: ((1,), "t")},
                                  "t": {0: ((0,), "s"), 1: ((1,), "s")}})
        with pytest.raises(InvalidInput, match="not a valid core element: not synchronizing"):
            invert_element(GroupElement(swapping))

    def test_raw_element_inverts_with_validations_closure(self, record_calls, root_first):
        t3 = GroupElement.from_machine(machine_T(3))
        M = group_product(t3, t3).machine
        want = invert_element(GroupElement.from_machine(M))
        closures = {canonical_core(inverse_closure(root_first(M, q))) for q in M.states}
        assert closures == {want.machine}
        raw = parse(serialize(M))
        calls = record_calls(("inverse_closure",))
        assert invert_element(GroupElement(raw)) == want
        # validation's closure alone: the inverse is not validated
        assert len(calls["inverse_closure"]) == 1

    def test_homomorphism_check_reuses_the_pool_products(self, record_calls):
        from cantortx.verify import check_rsig_homomorphism

        calls = record_calls(("group_product",))
        assert check_rsig_homomorphism() == (True, "homomorphism verified")
        assert len(calls["group_product"]) == 368
