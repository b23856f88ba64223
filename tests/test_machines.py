import gc
import json
from functools import reduce
from pathlib import Path

import pytest

from cantortx.words import EMPTY, ClopenSet, InvalidInput, pairwise_disjoint, whole_space
from cantortx.transducer import Transducer, evaluate
from cantortx.initial import (
    InitialTransducer,
    evaluate_initial,
    minimize_initial,
    rooted_word,
    split_rooted,
)
from cantortx.images import Orientation, images, orientation
from cantortx.invert import bisynchronizing_failure_initial, invert_initial
from cantortx.signature import validation_failure
from cantortx.synchronize import core
from cantortx.textio import serialize
from cantortx import machines
from cantortx.machines import (
    PrefixExchange,
    RealizeError,
    ViableCombination,
    cycle_transducer,
    from_prefix_exchange,
    identity_transducer,
    letter_complement,
    machine_A,
    machine_B,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    realize,
    reorder_lexicographic,
    state_wrapper,
    swap_transducer,
    viable_combinations,
)
from cantortx.group import GroupElement, canonical_core, group_product, identity_element


class TestBuiltins:
    def test_g_edges(self):
        g = machine_g4()
        assert evaluate(g, "a", (3,)) == ((1,), "b")
        assert evaluate(g, "b", (0,)) == ((2,), "a")

    def test_T_edges(self):
        T = machine_T(3)
        assert evaluate(T, "a", (2,)) == ((2, 2), "b")
        assert evaluate(T, "a", (0,)) == (EMPTY, "c")
        assert evaluate(T, "a", (1,)) == ((2, 1), "a")
        T5 = machine_T(5)
        for x in (1, 2, 3):
            assert evaluate(T5, "a", (x,)) == ((4, x), "a")

    def test_U_edges(self):
        U = machine_U(4)
        assert evaluate(U, "p", (0,)) == ((0,), "q")
        assert evaluate(U, "q", (0,)) == (EMPTY, "t")
        assert evaluate(U, "q", (3,)) == ((3, 3), "s")
        assert evaluate(U, "t", (3,)) == ((3, 0), "s")

    def test_letter_complement_values(self):
        piR = letter_complement(4)
        assert evaluate(piR, "0", (0, 3)) == ((3, 0), "0")
        assert orientation(piR) is Orientation.REVERSING

    def test_letter_complement_is_valid(self):
        # realize carries this verdict unchecked for its flip
        for n in range(2, 8):
            assert validation_failure(letter_complement(n)) is None

    def test_square_of_complement_is_identity(self):
        piR = GroupElement.from_machine(letter_complement(5))
        assert group_product(piR, piR) == identity_element(5)

    def test_sub_machines_over_two_letters(self):
        A = machine_A(3)
        assert A.n == 2
        assert evaluate(A, "a", (1,)) == ((1, 1), "b")
        assert evaluate(A, "a", (0,)) == (EMPTY, "c")
        B = machine_B(5)
        assert evaluate(B, "q", (1,)) == ((1, 1), "s")
        with pytest.raises(InvalidInput):
            machine_A(2)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidInput):
            machine_T(2)


class TestBlockSum:
    def test_hand_traced_transition(self):
        M = oplus(2, swap_transducer(), 4)
        out, dest = evaluate(M, ("0", 0), (2,))
        assert out == (0,) and dest == ("0", 1)

    def test_within_block_copies(self):
        M = oplus(2, swap_transducer(), 4)
        # block 1 acts as the swap on letters 2,3
        assert evaluate(M, ("0", 1), (2,)) == ((3,), ("0", 1))
        assert evaluate(M, ("0", 1), (3,)) == ((2,), ("0", 1))

    def test_cross_block_outputs(self):
        M = oplus(3, cycle_transducer(3), 6)
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                for b in range(3):
                    out, dest = evaluate(M, ("0", i), (3 * j + b,))
                    assert out == (3 * i + b,)
                    assert dest[1] == j

    def test_image_blocks(self):
        M = oplus(2, swap_transducer(), 6)
        img = images(M)
        for i in range(3):
            assert img[("0", i)].cones == ((2 * i,), (2 * i + 1,))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            oplus(3, cycle_transducer(3), 7)  # 3 does not divide 7
        with pytest.raises(InvalidInput):
            oplus(2, machine_g4(), 4)  # wrong alphabet
        non_sync = Transducer(
            2,
            {
                "s": {0: ((1,), "t"), 1: ((0,), "t")},
                "t": {0: ((0,), "s"), 1: ((1,), "s")},
            },
        )
        with pytest.raises(InvalidInput):
            oplus(2, non_sync, 4)  # permutation automaton is not synchronizing
        non_synchronous = machine_T(3)
        with pytest.raises(InvalidInput):
            oplus(3, non_synchronous, 6)


class TestPrefixExchange:
    def test_identity_exchange(self):
        pe = PrefixExchange(2, 1, [(0, EMPTY)], [(0, EMPTY)], (0,))
        E = from_prefix_exchange(pe)
        assert minimize_initial(E) == minimize_initial(state_wrapper(identity_transducer(2), "0", 1))

    def test_thompson_style_element(self):
        pe = PrefixExchange(
            2, 1,
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            [(0, (0, 0)), (0, (0, 1)), (0, (1,))],
            (0, 1, 2),
        )
        E = from_prefix_exchange(pe)
        out, _ = evaluate_initial(E, 0, (1, 0, 1))
        assert split_rooted(out) == (0, (0, 1, 1))
        C = core(E)
        assert len(C.states) == 1

    def test_cyclic_flag(self):
        rotated = PrefixExchange(
            2, 1,
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            (1, 2, 0),
        )
        assert rotated.is_cyclic
        swap = PrefixExchange(
            2, 1,
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            (0, 2, 1),
        )
        assert not swap.is_cyclic

    def test_incomplete_antichain_rejected(self):
        with pytest.raises(InvalidInput):
            PrefixExchange(2, 1, [(0, (0,))], [(0, (1,))], (0,))


def reference_viable_combinations(T, max_prefix_depth=3, max_size=None, limit=None):
    """The recursive search that the explicit stack replaced."""
    img = images(T)
    if max_size is None:
        max_size = 3 * (T.n - 1) + 1
    candidates = []
    prefixes = [EMPTY]
    for _ in range(max_prefix_depth):
        prefixes = [w + (i,) for w in prefixes for i in range(T.n)] + prefixes
    seen = set()
    for w in sorted(set(prefixes), key=lambda w: (len(w), w)):
        for q in T.states:
            piece = img[q].shift(w)
            if not piece.is_empty() and (w, q) not in seen:
                seen.add((w, q))
                candidates.append((w, q, piece))
    found = []

    def search(uncovered, chosen):
        if limit is not None and len(found) >= limit:
            return
        if uncovered.is_empty():
            found.append(
                ViableCombination(
                    tuple(w for w, q, _ in chosen), tuple(q for w, q, _ in chosen)
                )
            )
            return
        if len(chosen) >= max_size:
            return
        low = uncovered.min_point()
        for w, q, piece in candidates:
            if piece.contains_point(low) and piece.issubset(uncovered):
                search(uncovered.intersection(piece.complement()), chosen + [(w, q, piece)])

    search(whole_space(T.n), [])
    return found


def validate_viable(T, v):
    """The pieces of v are pairwise disjoint and cover the whole space."""
    img = images(T)
    pieces = [img[q].shift(w) for w, q in v.entries()]
    return pairwise_disjoint(pieces) and reduce(ClopenSet.union, pieces).is_whole()


def expand_viable(T, v, index):
    """Replace entry `index` by its n children: again viable, and longer by
    n-1 entries."""
    rho, p = v.prefixes[index], v.states[index]
    kids = [(rho + T.output(p, l), T.dest(p, l)) for l in range(T.n)]
    prefixes = v.prefixes[:index] + tuple(w for w, _ in kids) + v.prefixes[index + 1:]
    states = v.states[:index] + tuple(q for _, q in kids) + v.states[index + 1:]
    return ViableCombination(prefixes, states)


class TestViableCombinations:
    def test_search_matches_the_recursive_reference(self):
        bounds = ({"limit": 8}, {"max_size": 3, "limit": 20}, {"max_size": 2},
                  {"max_prefix_depth": 2, "limit": 12}, {"max_size": 0}, {"limit": 0},
                  {"max_size": 1})
        for M in (machine_g4(), machine_T(3), machine_U(3), oplus(2, swap_transducer(), 4)):
            for kw in bounds:
                assert viable_combinations(M, **kw) == reference_viable_combinations(M, **kw)

    def test_search_leaves_no_cyclic_garbage(self):
        g = machine_g4()
        gc.collect()
        gc.disable()
        try:
            combos = viable_combinations(g, limit=8)
            # the recursive search left 926 objects here
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert combos == reference_viable_combinations(g, limit=8)

    def test_identity_has_singleton(self):
        I = identity_transducer(3)
        combos = viable_combinations(I, max_prefix_depth=1, max_size=1)
        assert any(c.prefixes == (EMPTY,) for c in combos)

    def test_g_pair(self):
        g = machine_g4()
        combos = viable_combinations(g, max_prefix_depth=1, max_size=2)
        assert any(
            c.prefixes == (EMPTY, EMPTY) and set(c.states) == {"a", "b"}
            for c in combos
        )
        for c in combos:
            assert validate_viable(g, c)

    def test_expansion_preserves_viability(self):
        g = machine_g4()
        base = viable_combinations(g, 1, 2)[0]
        once = expand_viable(g, base, 0)
        assert len(once) == len(base) + 3
        assert validate_viable(g, once)
        twice = expand_viable(g, once, 1)
        assert len(twice) == len(base) + 6
        assert validate_viable(g, twice)

    def test_expansion_of_identity_gives_letters(self):
        I = identity_transducer(4)
        base = viable_combinations(I, 1, 1)[0]
        kids = expand_viable(I, base, 0)
        assert kids.prefixes == tuple((i,) for i in range(4))
        assert validate_viable(I, kids)

    def test_lexicographic_reorder(self):
        g = machine_g4()
        base = viable_combinations(g, 1, 2)[0]
        v = reorder_lexicographic(g, base)
        assert v.states == ("a", "b")  # im(a)={0,1} below im(b)={2,3}
        shuffled = type(base)(tuple(reversed(v.prefixes)), tuple(reversed(v.states)))
        assert reorder_lexicographic(g, shuffled).states == ("a", "b")

    def test_reorder_beyond_sixty_four_letters(self):
        # the least points 0^65 1 0^w and 0^w first differ at letter 66
        I = identity_transducer(2)
        deep = tuple((0,) * k + (1,) for k in range(65, -1, -1)) + ((0,) * 66,)
        v = ViableCombination(deep, ("0",) * len(deep))
        assert validate_viable(I, v)
        got = reorder_lexicographic(I, v)
        assert got.prefixes == deep[-1:] + deep[:-1]

    def test_interleaved_pieces_not_orderable(self):
        M = oplus(2, swap_transducer(), 4)
        combos = viable_combinations(M, 1, 2)
        pair = next(c for c in combos if len(c) == 2 and c.prefixes == (EMPTY, EMPTY))
        assert reorder_lexicographic(M, pair)  # blocks do separate
        # but a mixed deep/shallow tiling need not; build one by expansion
        mixed = expand_viable(M, pair, 0)
        assert validate_viable(M, mixed)


class TestRealize:
    def test_identity_element(self):
        A = realize(identity_transducer(3), 2)
        assert bisynchronizing_failure_initial(A) is None
        C = core(A)
        assert len(C.states) == 1

    def test_g_over_three_roots(self):
        g = machine_g4()
        A = realize(g, 3)
        assert canonical_core(core(A)) == canonical_core(g)
        assert bisynchronizing_failure_initial(A) is None
        assert orientation(core(A)) is Orientation.PRESERVING

    def test_homeomorphism_state_shortcut(self):
        T = machine_T(3)
        A = realize(T, 1)
        # single dotted root feeding the homeomorphism state
        assert minimize_initial(A) == minimize_initial(state_wrapper(T, "a", 1))

    def test_inadmissible_root_count_rejected(self):
        with pytest.raises(RealizeError):
            realize(machine_g4(), 1)

    def test_unordered_variant(self):
        M = oplus(2, swap_transducer(), 4)
        with pytest.raises(RealizeError):
            realize(M, 3, ordered=True)  # the block sum is not orderable
        A = realize(M, 3, ordered=False)
        assert canonical_core(core(A)) == canonical_core(M)
        assert bisynchronizing_failure_initial(A) is None

    def test_reversing_element(self):
        piR = letter_complement(3)
        A = realize(piR, 2)
        assert canonical_core(core(A)) == canonical_core(piR)
        assert bisynchronizing_failure_initial(A) is None

    def test_reason_names_the_failing_condition(self):
        M = canonical_core(oplus(2, swap_transducer(), 4))
        with pytest.raises(RealizeError, match="neither preserves nor reverses"):
            realize(M, 3)
        with pytest.raises(RealizeError, match="membership congruence fails at this root count"):
            realize(machine_g4(), 1)
        with pytest.raises(RealizeError, match="not synchronizing"):
            realize(Transducer(2, {"0": {0: ((0,), "0"), 1: ((1,), "0")},
                                   "1": {0: ((0,), "1"), 1: ((1,), "1")}}), 1)

    def test_state_named_like_the_tree_root(self):
        # the element's own state names never meet the tree's
        def renamed(T, old):
            name = {q: "q0" if q == old else q for q in T.states}
            return Transducer(T.n, {name[q]: {i: (w, name[p]) for i, (w, p) in enumerate(T.row(q))}
                                    for q in T.states})

        for T, old in ((machine_T(3), "a"), (letter_complement(4), "0")):
            for r in (1, 2):
                got = realize(renamed(T, old), r)
                assert serialize(got) == serialize(realize(T, r))


class TestFirstFit:
    """realize assembles from the first viable combination that fits and
    builds no other; the result and the error messages are those of
    building up to 8 combinations first."""

    @staticmethod
    def g4_element():
        # neither state image is the whole space, so realize searches
        return GroupElement.from_machine(machine_g4()).machine

    def test_g4_draws_one_combination(self, monkeypatch):
        drawn = []
        search = machines._viable_search

        def counted(*args):
            for combo in search(*args):
                drawn.append(combo)
                yield combo

        monkeypatch.setattr(machines, "_viable_search", counted)
        A = realize(self.g4_element(), 3)
        assert len(drawn) == 1
        golden = Path(__file__).resolve().parent / "golden" / "cli_kernel.json"
        assert serialize(A) == json.loads(golden.read_text())["realize --r 3 g4.tx"]

    def test_no_viable_combination_message(self):
        with pytest.raises(RealizeError) as err:
            realize(self.g4_element(), 3, max_size=0)
        assert str(err.value) == "no viable combination within depth 3, size 0"

    def test_every_combination_failing_message(self, monkeypatch):
        monkeypatch.setattr(machines, "_check_circle_map", lambda A, leaves: False)
        with pytest.raises(RealizeError) as err:
            realize(self.g4_element(), 3)
        assert str(err.value) == "; ".join(["assembled map broke a circle gluing"] * 8)


class TestRealizeWork:
    """realize validates its element once, and checks and inverts the
    machine it built once; repeated analyses would show in these counts of
    the kernels that do the work (memo hits run none of them)."""

    @staticmethod
    def by_kind(calls):
        """{"plain": count, "initial": count} of the image fixpoints."""
        initial = sum(isinstance(c["M"], InitialTransducer) for c in calls["_fixpoint"])
        return {"plain": len(calls["_fixpoint"]) - initial, "initial": initial}

    def test_call_counts(self, record_calls):
        calls = record_calls((
            "_minimize", "_fixpoint", "_core_failure", "_boundary_orientation",
            "_non_injective",
        ))
        A = realize(machine_T(3), 2)
        assert len(A.states) > 1
        assert 1 <= len(calls["_minimize"]) <= 2
        assert self.by_kind(calls) == {"plain": 1, "initial": 1}
        assert len(calls["_core_failure"]) == 1
        assert len(calls["_boundary_orientation"]) == 1
        # injectivity of T for validation, of A for the homeomorphism check
        assert len(calls["_non_injective"]) == 2

    def test_reversing_call_counts(self, record_calls):
        # membership validates T; the flip, a known valid element, carries
        # its verdict unchecked, and so does T's canonical core, so
        # group_product reads both verdicts from the memo and the partner
        # T . (letter complement), a product of valid elements, is not
        # validated.  Only the final machine is minimized and verified.
        # T's validation keeps the canonical core of T's inverse.
        calls = record_calls((
            "validation_failure", "_core_failure", "_fixpoint", "inverse_closure",
            "canonical_core", "_minimize", "_verify_realization",
        ))
        A = realize(letter_complement(4), 2)
        assert len(A.states) == 2
        # T's, and the partner's that realization reads
        assert self.by_kind(calls) == {"plain": 2, "initial": 1}
        del calls["_fixpoint"]
        assert {name: len(c) for name, c in calls.items()} == {
            "validation_failure": 3, "_core_failure": 1, "inverse_closure": 1,
            "canonical_core": 5, "_minimize": 2, "_verify_realization": 1,
        }

    def test_inverting_a_realized_machine_minimizes_once(self, record_calls):
        # realize checks bi-synchronization with A's inverse, which stays in
        # A's memo, so invert_initial neither closes nor minimizes again
        A = realize(machine_T(3), 2)
        names = ("_minimize", "_close", "_fixpoint")
        calls = record_calls(names)
        Ainv = invert_initial(A)
        assert [len(calls[name]) for name in names] == [0, 0, 0]
        assert invert_initial(A) is Ainv
        assert minimize_initial(Ainv) is Ainv and minimize_initial(A) is A

    def test_realize_and_invert_close_and_minimize_twice(self, record_calls):
        # one plain closure validates T, one initial closure inverts A; the
        # realized machine and its inverse are minimized once each
        calls = record_calls(("_minimize", "_close"))
        invert_initial(realize(machine_T(3), 2))
        assert {name: len(c) for name, c in calls.items()} == {"_minimize": 2, "_close": 2}


# --- the one antichain tree against the two builders it replaced ------------


def reference_tree(n, a, prefix, words, leaf_cell, table):
    """The per-root recursive builder that from_prefix_exchange and
    _assemble_blocks each had: the state ("t", a, prefix) reads one letter,
    leaving by leaf_cell(ext) at a leaf (a, ext) and going one level down
    otherwise."""
    row = {}
    for i in range(n):
        ext = prefix + (i,)
        if ext in words:
            row[i] = leaf_cell(ext)
        else:
            below = [w for w in words if w[: len(ext)] == ext]
            row[i] = (EMPTY, ("t", a, ext))
            reference_tree(n, a, ext, below, leaf_cell, table)
    table[("t", a, prefix)] = row


def reference_tree_machine(n, r, leaves, leaf_cell, table):
    """The initial machine of the reference builders, with the initial
    state ("t",): a root whose antichain is the empty word leaves at once,
    every other root enters its tree."""
    root_table = {}
    for a in range(r):
        words = [w for b, w in leaves if b == a]
        if EMPTY in words:
            root_table[a] = leaf_cell(a, EMPTY)
        else:
            root_table[a] = (EMPTY, ("t", a, EMPTY))
            reference_tree(n, a, EMPTY, words, lambda w, a=a: leaf_cell(a, w), table)
    return InitialTransducer(n, r, root_table, table, root=("t",))


def reference_from_prefix_exchange(pe):
    cells = {}
    for leaf, k in zip(pe.domain, pe.bijection):
        b, v = pe.range_[k]
        cells[leaf] = (rooted_word(b, v), "id")
    table = {"id": {i: ((i,), "id") for i in range(pe.n)}}
    raw = reference_tree_machine(pe.n, pe.r, pe.domain, lambda a, w: cells[a, w], table)
    return minimize_initial(raw)


def reference_assemble_blocks(T, v, r):
    j = len(v)
    total = r * j
    if (total - r) % (T.n - 1) != 0:
        raise RealizeError("combination size incompatible with the root count")
    leaves = machines._subdivide_last(
        T.n, [(a, EMPTY) for a in range(r)], (total - r) // (T.n - 1))
    cells = {}
    for k, leaf in enumerate(leaves):
        i, a = divmod(k, j)
        cells[leaf] = (rooted_word(i, v.prefixes[a]), v.states[a])
    table = {q: {i: (T.output(q, i), T.dest(q, i)) for i in range(T.n)} for q in T.states}
    return reference_tree_machine(T.n, r, leaves, lambda a, w: cells[a, w], table), leaves


def random_antichain(rng, n, r, splits):
    """A complete antichain over r roots: the roots, then `splits` random
    leaves each replaced by their n children."""
    leaves = [(a, EMPTY) for a in range(r)]
    for _ in range(splits):
        a, w = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend((a, w + (i,)) for i in range(n))
    return leaves


class TestTreeMachineReference:
    def test_prefix_exchanges(self):
        import random

        rng = random.Random(20)
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                for _ in range(12):
                    splits = rng.randrange(5)
                    domain = random_antichain(rng, n, r, splits)
                    range_ = random_antichain(rng, n, r, splits)
                    bijection = list(range(len(domain)))
                    rng.shuffle(bijection)
                    pe = PrefixExchange(n, r, domain, range_, tuple(bijection))
                    got = from_prefix_exchange(pe)
                    want = reference_from_prefix_exchange(pe)
                    assert got == want and serialize(got) == serialize(want), (n, r, pe)

    def test_assembled_blocks(self):
        cores = [machine_g4(), machine_T(3), machine_U(3), machine_T(4),
                 oplus(2, swap_transducer(), 4)]
        checked = 0
        for T in cores:
            for v in viable_combinations(T, limit=6):
                for r in (1, 2, 3):
                    try:
                        want = reference_assemble_blocks(T, v, r)
                    except RealizeError as exc:
                        with pytest.raises(RealizeError, match=str(exc)):
                            machines._assemble_blocks(T, v, r)
                        continue
                    raw, leaves = machines._assemble_blocks(T, v, r)
                    assert leaves == want[1]
                    assert raw == want[0] and raw.states == want[0].states
                    checked += 1
        assert checked > 40
