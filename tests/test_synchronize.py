"""Synchronization against a reference: the subset-family implementation
that the counted collapse replaced, kept below verbatim.  The reference
defines its own is_synchronizing, so the library's synchronization routines
are called as sync.*."""

import random
from itertools import product as cartesian

import pytest

from cantortx.words import InvalidInput
from cantortx import synchronize as sync
from cantortx.transducer import (
    COMPLETE_RESPONSE,
    MINIMAL,
    SYNCHRONIZING,
    Transducer,
    evaluate,
    mark,
    marked,
)
from cantortx.initial import InitialTransducer
from cantortx.synchronize import NotSynchronizing, core
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    swap_transducer,
    state_wrapper,
    from_prefix_exchange,
    PrefixExchange,
)
from cantortx.group import GroupElement, canonical_core, group_product, invert_element


# --- reference: the subset family, as it stood in cantortx.synchronize -----

class Automaton:
    """Transition-only view: states plus a row of destinations per state."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = dict(rows)  # state -> tuple of destinations

    def __eq__(self, other):
        return isinstance(other, Automaton) and (self.n, self.rows) == (other.n, other.rows)

    def __repr__(self):
        return f"<Automaton n={self.n} states={len(self.rows)}>"

    @property
    def states(self):
        return tuple(self.rows)


def automaton_of(T):
    # the interior of an initial machine: every state but the initial one
    states = T.states[1:] if isinstance(T, InitialTransducer) else T.states
    return Automaton(T.n, {q: tuple(p for _, p in T.row(q)) for q in states})


def collapse(A):
    """One collapsing step: merge states whose transition rows agree."""
    if isinstance(A, (Transducer, InitialTransducer)):
        A = automaton_of(A)
    cls = {}
    group = {}
    for q, row in A.rows.items():
        group[q] = cls.setdefault(row, len(cls))
    rows = {}
    for q, row in A.rows.items():
        rows.setdefault(group[q], tuple(group[p] for p in row))
    return Automaton(A.n, rows)


def collapse_fixpoint(A):
    if isinstance(A, (Transducer, InitialTransducer)):
        A = automaton_of(A)
    while True:
        B = collapse(A)
        if len(B.rows) == len(A.rows):
            return A
        A = B


def is_synchronizing(T):
    return len(collapse_fixpoint(T).rows) == 1


def subset_counts(T):
    """One pass over the subset images of the full state set: push a count of
    words per subset through the letters until every subset is one state.

    Returns (level, counts, rows): the minimal sync level; for each forced
    state the number of words of that length that force it; and the
    one-letter successors of every subset met before that level, enough to
    replay the walk of any word.  The machine must be synchronizing."""
    if not is_synchronizing(T):
        raise NotSynchronizing("machine is not synchronizing")
    A = automaton_of(T)
    rows = {}
    family = {frozenset(A.states): 1}
    level = 0
    while any(len(S) > 1 for S in family):
        nxt = {}
        for S, count in family.items():
            row = rows.get(S)
            if row is None:
                row = rows[S] = tuple(
                    frozenset(A.rows[q][i] for q in S) for i in range(A.n)
                )
            for C in row:
                nxt[C] = nxt.get(C, 0) + count
        family = nxt
        level += 1
    return level, {next(iter(S)): count for S, count in family.items()}, rows


# --- pools ------------------------------------------------------------------


def swap_automaton():
    # both letters swap the two states: a permutation automaton, never collapses
    return Transducer(
        2,
        {
            "s": {0: ((0,), "t"), 1: ((1,), "t")},
            "t": {0: ((0,), "s"), 1: ((1,), "s")},
        },
    )


def random_table(rng, n, k):
    states = list(range(k))
    return Transducer(
        n, {q: {i: ((i,), rng.choice(states)) for i in range(n)} for q in states}
    )


def element_pool():
    """T and U at n = 3..5, powers 1..16, and 45 seeded random products of
    T^+-1 and U^+-1: 141 core machines."""
    pool = []
    gens = {}
    for n in (3, 4, 5):
        for make in (machine_T, machine_U):
            g = GroupElement.from_machine(make(n))
            gens.setdefault(n, []).extend((g, invert_element(g)))
            acc = g
            for _ in range(16):
                pool.append(acc.machine)
                acc = group_product(acc, g)
    rng = random.Random(2019)
    for _ in range(45):
        choices = gens[rng.choice((3, 4, 5))]
        acc = rng.choice(choices)
        for _ in range(rng.randrange(1, 6)):
            acc = group_product(acc, rng.choice(choices))
        pool.append(acc.machine)
    return pool


def random_tables():
    """3000 seeded random destination tables, n = 2..4 and |Q| = 1..9; most
    of them do not synchronize."""
    rng = random.Random(3000)
    return [random_table(rng, rng.randint(2, 4), rng.randint(1, 9)) for _ in range(3000)]


def assert_agrees(T):
    """The library's answers on T are the reference's; returns whether T
    synchronizes."""
    synchronizing = is_synchronizing(T)
    assert sync.is_synchronizing(T) == synchronizing
    if not synchronizing:
        for fn in (sync.minimal_sync_level, sync.sync_counts, sync.core_states):
            with pytest.raises(NotSynchronizing):
                fn(T)
        return False
    level, counts, _ = subset_counts(T)
    assert sync.minimal_sync_level(T) == level
    assert sync.sync_counts(T) == (level, counts)
    assert sync.core_states(T) == set(counts)
    assert level <= len(automaton_of(T).rows) - 1
    return True


class TestDifferential:
    def test_element_pool(self):
        elements = element_pool()
        assert len(elements) == 141
        assert all(assert_agrees(T) for T in elements)

    def test_random_tables(self):
        tables = random_tables()
        synchronizing = sum(assert_agrees(T) for T in tables)
        assert 0 < synchronizing < len(tables) // 4

    def test_state_wrapper_initial_machines(self):
        for M in (machine_g4(), machine_T(3), machine_U(4), letter_complement(3)):
            for q in M.states:
                for r in range(1, M.n):
                    assert assert_agrees(state_wrapper(M, q, r))


class TestCollapse:
    """The counted collapse's rounds, against the reference collapse."""

    def test_g_collapses_in_one_step(self):
        assert len(collapse(machine_g4()).rows) == 1
        assert sync.minimal_sync_level(machine_g4()) == 1

    def test_single_states_stay(self):
        for M in (identity_transducer(3), letter_complement(5)):
            assert len(collapse(M).rows) == 1
            assert sync.sync_counts(M) == (0, {M.states[0]: 1})

    def test_never_increases_and_reaches_fixpoint(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice([2, 3])
            k = rng.randint(1, 6)
            T = random_table(rng, n, k)
            A = automaton_of(T)
            sizes = [len(A.rows)]
            for _ in range(k + 2):
                A = collapse(A)
                sizes.append(len(A.rows))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[k] == sizes[k + 1]  # fixpoint within |Q| steps
            # the counted collapse stops after the rounds that shrink, at
            # most |Q| - 1 of them, and only once one state is left
            shrinking = sum(a > b for a, b in zip(sizes, sizes[1:]))
            if sizes[-1] == 1:
                assert sync.minimal_sync_level(T) == shrinking <= k - 1
            else:
                assert not sync.is_synchronizing(T)

    def test_no_states_is_not_synchronizing(self):
        empty = Transducer(2, {})
        assert not is_synchronizing(empty)
        assert not sync.is_synchronizing(empty)
        with pytest.raises(NotSynchronizing):
            sync.sync_counts(empty)


def collapse_rounds_reference(rows):
    """The counted collapse as it stood before it rehashed only the rows
    that changed: every round rehashes every row of the quotient."""
    level = 0
    while len(rows) != 1:
        cls = {}
        group = {q: cls.setdefault(row, len(cls)) for q, row in rows.items()}
        if len(cls) == len(rows):
            return None
        merged = {}
        for q, row in rows.items():
            merged.setdefault(group[q], tuple(group[p] for p in row))
        rows = merged
        level += 1
    return level


class TestIncrementalCollapse:
    def test_matches_round_by_round_on_random_rows(self):
        # uniform rows rarely synchronize past level 2; rows that mostly
        # step to the next state reach every level up to 9
        rng = random.Random(18)
        levels = set()
        for _ in range(20000):
            n, k = rng.randint(2, 4), rng.randint(1, 10)
            bias = rng.choice((0.0, 0.85))
            rows = {
                q: tuple(min(q + 1, k - 1) if rng.random() < bias else rng.randrange(k)
                         for _ in range(n))
                for q in range(k)
            }
            want = collapse_rounds_reference(rows)
            assert sync._collapse_rounds(rows) == want
            levels.add(want)
        assert levels == {None, *range(10)}

    def test_matches_round_by_round_on_the_element_pool(self):
        for T in element_pool():
            rows = {q: tuple(p for _, p in T.row(q)) for q in T.states}
            assert sync._collapse_rounds(rows) == collapse_rounds_reference(rows)

    def test_core_states_are_the_support_of_the_counts(self):
        machines = random_tables() + [
            state_wrapper(M, q, r)
            for M in (machine_g4(), machine_T(3), machine_U(4))
            for q in M.states for r in range(1, M.n)
        ]
        for T in machines:
            if sync.is_synchronizing(T):
                assert sync.core_states(T) == set(sync.sync_counts(T)[1])


class TestIsSynchronizing:
    def test_examples(self):
        assert sync.is_synchronizing(machine_g4())
        assert not sync.is_synchronizing(swap_automaton())
        assert sync.is_synchronizing(oplus(2, swap_transducer(), 4))

    def test_agrees_with_word_enumeration(self):
        # brute-force definition: some k <= 8 where every length-k word
        # sends the full state set to one state
        rng = random.Random(11)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            k = rng.randint(1, 6)
            states = list(range(k))
            T = Transducer(
                n,
                {
                    q: {i: ((0,), rng.choice(states)) for i in range(n)}
                    for q in states
                },
            )
            brute = False
            for depth in range(9):
                if all(
                    len({evaluate(T, q, w)[1] for q in states}) == 1
                    for w in cartesian(range(n), repeat=depth)
                ):
                    brute = True
                    break
            assert sync.is_synchronizing(T) == brute


class TestSyncLevel:
    def test_examples(self):
        assert sync.minimal_sync_level(machine_g4()) == 1
        assert sync.minimal_sync_level(identity_transducer(3)) == 0
        # letter 0 maps {a,b,c} to {b,c}, so level 1 fails; level 2 works
        T = machine_T(3)
        assert {evaluate(T, q, (0,))[1] for q in T.states} == {"b", "c"}
        for w in cartesian(range(3), repeat=2):
            assert len({evaluate(T, q, w)[1] for q in T.states}) == 1
        assert sync.minimal_sync_level(T) == 2

    def test_requires_synchronizing(self):
        with pytest.raises(NotSynchronizing):
            sync.minimal_sync_level(swap_automaton())

    def test_forced_state(self):
        # the state a word forces is where it ends from every state
        g = machine_g4()
        assert {evaluate(g, q, (0,))[1] for q in g.states} == {"a"}
        assert {evaluate(g, q, (1,))[1] for q in g.states} == {"b"}
        # one letter is below T:3's level, so it forces no single state
        T = machine_T(3)
        assert len({evaluate(T, q, (0,))[1] for q in T.states}) > 1


class TestCore:
    def test_core_of_core_machines(self):
        g = machine_g4()
        assert core(g) == g
        piR = letter_complement(3)
        assert core(piR) == piR

    def test_prefix_exchange_has_identity_core(self):
        pe = PrefixExchange(
            2, 1,
            [(0, (0,)), (0, (1, 0)), (0, (1, 1))],
            [(0, (0, 0)), (0, (0, 1)), (0, (1,))],
            (0, 1, 2),
        )
        E = from_prefix_exchange(pe)
        C = core(E)
        assert len(C.states) == 1
        q = C.states[0]
        assert all(C.output(q, i) == (i,) for i in range(2))

    def test_core_of_wrapper_recovers_machine(self):
        g = machine_g4()
        A = state_wrapper(g, "a", 3)
        assert canonical_core(core(A)) == canonical_core(g)

    def test_strongly_connected_and_idempotent(self):
        for M in (machine_g4(), machine_T(3), oplus(2, swap_transducer(), 4)):
            C = core(M)
            assert core(C) == C
            # strong connectivity: every state reaches every other
            for q in C.states:
                seen = {q}
                frontier = [q]
                while frontier:
                    p = frontier.pop()
                    for i in range(C.n):
                        d = C.dest(p, i)
                        if d not in seen:
                            seen.add(d)
                            frontier.append(d)
                assert seen == set(C.states)

    def test_core_of_product_factors_through_cores(self):
        # core(A*B) equals core(core(A)*core(B)) after canonicalization
        from cantortx.transducer import product

        g = machine_g4()
        A = state_wrapper(g, "a", 1)
        T = machine_T(4)
        W = state_wrapper(T, "a", 1)
        from cantortx.initial import product_initial

        P = product_initial(A, W)
        got = canonical_core(core(P))
        want = canonical_core(core(product(core(A), core(W))))
        assert got == want


# --- the core of a machine marked synchronizing, read with no collapse ------


def unmarked(T):
    """A copy of T that keeps only the marks that canonical_core reads
    besides SYNCHRONIZING, so its core comes from the collapse."""
    C = Transducer._from_rows(T.n, T._rows)
    return mark(C, *(fact for fact in (MINIMAL, COMPLETE_RESPONSE) if marked(T, fact)))


def assert_walk_is_the_collapse(T):
    U = unmarked(T)
    assert sync.core_states(T) == sync.core_states(U)
    assert canonical_core(T) == canonical_core(U)
    assert "sync_level" not in T._memo and "sync_level" in U._memo


def marked_arguments(calls):
    return [c["T"] for c in calls["canonical_core"] if marked(c["T"], SYNCHRONIZING)]


def law_generators(n):
    base = [machine_T(n), machine_U(n), letter_complement(n)]
    if n == 4:
        base.append(oplus(2, swap_transducer(), 4))
    return [GroupElement.from_machine(M) for M in base]


class TestCycleWalkCore:
    """On a machine marked synchronizing, core_states reads the core from
    the first repeated state of the letter-0 walk; the core and the
    canonical core equal the ones the collapse gives."""

    def test_random_synchronizing_tables(self):
        seen = 0
        for T in random_tables():
            if sync.is_synchronizing(T):
                M = mark(Transducer._from_rows(T.n, T._rows), SYNCHRONIZING)
                assert sync.core_states(M) == sync.core_states(T)
                seen += 1
        assert seen > 10

    def test_products_and_closures_of_the_verify_pools(self, record_calls):
        from cantortx.verify import _close_pool_products, _generator_pool

        calls = record_calls(("canonical_core",))
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            for g in layers[1] + layers[2] + layers[3]:
                invert_element(g)
        walked = marked_arguments(calls)
        products = [T for T in walked if marked(T, MINIMAL)]
        closures = [T for T in walked if marked(T, COMPLETE_RESPONSE)]
        assert len(products) + len(closures) == len(walked)
        assert len(products) > 100 and len(closures) > 50
        for T in walked:
            assert_walk_is_the_collapse(T)

    def test_seeded_law_words(self, record_calls):
        # words drawn as the group-law tests draw them: 8 to 10 factors of
        # T, U, pi_R and, at n = 4, a block sum; each word's inverse too
        rng = random.Random(23)
        calls = record_calls(("canonical_core",))
        for n in (3, 4, 5):
            gens = law_generators(n)
            for _ in range(6):
                acc = gens[rng.randrange(len(gens))]
                for _ in range(rng.randint(7, 9)):
                    acc = group_product(acc, gens[rng.randrange(len(gens))])
                invert_element(acc)
        walked = marked_arguments(calls)
        assert sum(marked(T, COMPLETE_RESPONSE) for T in walked) == 18
        for T in walked:
            assert_walk_is_the_collapse(T)

    def test_unmarked_machine_that_does_not_synchronize(self):
        from cantortx.transducer import minimize_rooted

        # identity and complement by turns: minimal, never synchronizing
        turns = Transducer(2, {"s": {0: ((0,), "t"), 1: ((1,), "t")},
                               "t": {0: ((1,), "s"), 1: ((0,), "s")}})
        M = minimize_rooted(turns, "s")[0]
        assert len(M.states) == 2 and not marked(M, SYNCHRONIZING)
        for T in (turns, M):
            with pytest.raises(NotSynchronizing):
                sync.core_states(T)
            with pytest.raises(NotSynchronizing):
                canonical_core(T)
            with pytest.raises(InvalidInput, match="^not a valid core element: not synchronizing$"):
                GroupElement.from_machine(T)

    def test_only_products_and_inverses_of_valid_machines_are_marked(self, record_calls):
        from cantortx.invert import inverse_closure, inverse_core
        from cantortx.transducer import minimize_rooted, product

        t3 = machine_T(3)
        calls = record_calls(("canonical_core",))
        g = GroupElement.from_machine(t3)  # the input's core, the validation's closure
        assert len(calls["canonical_core"]) == 2 and marked_arguments(calls) == []
        invert_element(g)  # the inverse that validation kept
        assert len(calls["canonical_core"]) == 2
        p = group_product(g, g)  # the minimized product
        assert len(calls["canonical_core"]) == 3
        assert marked_arguments(calls) == [calls["canonical_core"][2]["T"]]
        invert_element(p)  # the closure of a machine with a passing verdict
        assert len(calls["canonical_core"]) == 4
        closure = calls["canonical_core"][3]["T"]
        assert marked_arguments(calls)[1:] == [closure]
        assert marked(closure, COMPLETE_RESPONSE)
        # the steps on their own mark nothing
        M = minimize_rooted(product(g.machine, g.machine), (g.machine.states[0],) * 2)[0]
        assert M._memo == {MINIMAL: True}
        assert not marked(inverse_closure(p.machine), SYNCHRONIZING)
        # nor does validation's closure of a machine that holds no verdict
        fresh = Transducer._from_rows(p.n, p.machine._rows)
        del calls["canonical_core"][:]
        inverse_core(fresh)
        assert marked_arguments(calls) == []


class TestDestinationRows:
    def test_built_once_per_machine(self, record_calls):
        # from_machine collapses the input and validates its core and the
        # core's closure; products, inverses and their signatures follow
        calls = record_calls(("_destinations",))
        g = GroupElement.from_machine(machine_T(3))
        h = GroupElement.from_machine(machine_U(3))
        for x in (g, h, group_product(g, h), invert_element(group_product(h, g))):
            x.signature
            sync.minimal_sync_level(x.machine)
            sync.core(x.machine)
        built = [c["T"] for c in calls["_destinations"]]
        assert len(built) == len({id(T) for T in built}) >= 10
