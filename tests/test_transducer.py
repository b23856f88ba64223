import random
import time
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantortx.words import EMPTY, EvPeriodicWord
from cantortx.transducer import (
    DegenerateTransducer,
    DepthExceeded,
    Transducer,
    check_productive,
    common_prefixes,
    evaluate,
    evaluate_periodic,
    minimize_rooted,
    omega_equivalent,
    product,
)
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
)


def random_machine(seed, n_choices=(2, 3), max_states=4, max_out=2, productive=True):
    rng = random.Random(seed)
    n = rng.choice(n_choices)
    k = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(k)]
    table = {}
    for q in states:
        row = {}
        for i in range(n):
            out = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_out)))
            if productive and not out:
                out = (rng.randrange(n),)  # guarantee productivity cheaply
            row[i] = (out, rng.choice(states))
        table[q] = row
    return Transducer(n, table)


def gcp(words):
    """Greatest common prefix of a nonempty list of words."""
    first, k = words[0], 0
    while k < len(first) and all(len(w) > k and w[k] == first[k] for w in words):
        k += 1
    return first[:k]


def brute_gcp_all_outputs(T, q, depth=8):
    """Independent oracle for the forced output: gcp over all depth-k
    outputs, iterated until the value is shorter than the shortest output."""
    outs = [evaluate(T, q, w)[0] for w in cartesian(range(T.n), repeat=depth)]
    g = gcp(outs)
    assert len(g) < min(len(o) for o in outs), "depth too small for the oracle"
    return g


class TestEvaluate:
    def test_g_figure_values(self):
        g = machine_g4()
        assert evaluate(g, "a", (1, 3)) == ((0, 3), "b")
        assert evaluate(g, "a", (2,)) == ((1,), "a")
        assert evaluate(g, "a", (3,)) == ((1,), "b")

    def test_identity(self):
        I = identity_transducer(3)
        for w in [(0, 1, 2), EMPTY, (2, 2)]:
            assert evaluate(I, "0", w) == (w, "0")

    def test_letter_range_checked(self):
        with pytest.raises(Exception):
            evaluate(identity_transducer(2), "0", (2,))

    def test_root_symbol_only_first_and_only_at_the_initial_state(self):
        # one loop for both kinds: a root symbol after the first symbol is
        # not a letter, on a plain machine and on an initial one
        from cantortx.initial import dot
        from cantortx.machines import state_wrapper
        from cantortx.words import InvalidInput

        g = machine_g4()
        A = state_wrapper(g, "a", 2)
        for M, q, w in ((g, "a", (0, dot(0))), (g, "a", (1, 2, dot(1), 0)), (g, "a", (dot(0),)),
                        (A, A.root, (dot(0), dot(1))), (A, A.root, (dot(1), 0, dot(0))),
                        (A, "a", (0, dot(0))), (A, "a", (dot(0),)), (A, A.root, (0,))):
            with pytest.raises(InvalidInput):
                evaluate(M, q, w)

    @given(st.integers(0, 10**9),
           st.lists(st.integers(0, 1), max_size=5),
           st.lists(st.integers(0, 1), max_size=5))
    @settings(max_examples=120)
    def test_cocycle_law(self, seed, u, v):
        T = random_machine(seed, n_choices=(2,))
        q = T.states[0]
        u, v = tuple(u), tuple(v)
        out_u, mid = evaluate(T, q, u)
        out_v, end = evaluate(T, mid, v)
        assert evaluate(T, q, u + v) == (out_u + out_v, end)


class TestRows:
    def test_step_rejects_unknown_state_and_letters(self):
        from cantortx.words import InvalidInput

        for T in (machine_g4(), machine_T(3), identity_transducer(2)):
            q = T.states[0]
            for bad in (-1, T.n, 1.0, "0", ("^", 0)):
                with pytest.raises(InvalidInput):
                    T.step(q, bad)
            with pytest.raises(InvalidInput):
                T.step("no such state", 0)
            with pytest.raises(InvalidInput):
                T.row("no such state")

    def test_row_is_the_steps(self):
        for seed in range(40):
            T = random_machine(seed, n_choices=(2, 3, 4), max_states=5)
            for q in T.states:
                assert T.row(q) == tuple(T.step(q, i) for i in range(T.n))
                for i in range(T.n):
                    assert (T.output(q, i), T.dest(q, i)) == T.step(q, i)
            assert list(T.rows()) == [
                (q, i, w, p) for q in T.states for i, (w, p) in enumerate(T.row(q))
            ]

    def test_rows_follow_the_letters_not_the_table_order(self):
        A = Transducer(2, {"s": {1: ((1,), "s"), 0: ((0, 0), "s")}})
        B = Transducer(2, {"s": {0: ((0, 0), "s"), 1: ((1,), "s")}})
        assert A.row("s") == (((0, 0), "s"), ((1,), "s"))
        assert A == B

    def test_symbols_at_are_the_letters(self):
        T = machine_g4()
        assert list(T.symbols_at("a")) == [0, 1, 2, 3]

    def test_hash_agrees_with_equality(self):
        for seed in range(40):
            T = random_machine(seed, n_choices=(2, 3, 4), max_states=5)
            table = {q: dict(enumerate(T.row(q))) for q in T.states}
            shuffled = {
                q: dict(reversed(list(table[q].items()))) for q in reversed(T.states)
            }
            U = Transducer(T.n, shuffled)
            assert U == T and hash(U) == hash(T)
            assert U.states != T.states or len(T.states) == 1

    def test_library_tables_pass_the_public_constructor(self):
        # machines the library builds without the constructor's checks are
        # valid tables, equal to what the checked constructor makes of them
        from cantortx.group import canonical_core
        from cantortx.invert import inverse_closure
        from cantortx.machines import realize
        from cantortx.synchronize import core
        from cantortx.transducer import merged_rows, relabel, restrict

        def rebuilt(M):
            return Transducer(M.n, {q: dict(enumerate(M.row(q))) for q in M.states})

        T3, U3 = machine_T(3), machine_U(3)
        P = product(T3, U3)
        built = [
            P,
            restrict(P, P.states),
            relabel(T3, {q: q + "'" for q in T3.states}),
            Transducer._from_rows(P.n, merged_rows(P._rows, common_prefixes(P))[1]),
            minimize_rooted(product(machine_g4(), machine_g4()), ("a", "a"))[0],
            minimize_rooted(P, P.states[0])[0],
            canonical_core(P),
            inverse_closure(machine_g4()),
            core(realize(T3, 2)),
        ]
        for M in built:
            R = rebuilt(M)
            assert R == M and R.states == M.states

    def test_unknown_start_state_in_evaluate(self):
        from cantortx.words import InvalidInput

        from cantortx.initial import dot
        from cantortx.machines import state_wrapper

        with pytest.raises(InvalidInput):
            evaluate(machine_g4(), "zz", (0,))
        assert evaluate(machine_g4(), "zz", ()) == ((), "zz")
        A = state_wrapper(machine_g4(), "a", 2)
        for w in ((0,), (dot(0),)):
            with pytest.raises(InvalidInput):
                evaluate(A, "zz", w)
        assert evaluate(A, "zz", ()) == ((), "zz")


class TestEvaluatePeriodic:
    def test_identity_fixed_point(self):
        I = identity_transducer(3)
        x = EvPeriodicWord((), (0, 1, 2))
        assert evaluate_periodic(I, "0", x) == x

    def test_g_loop(self):
        g = machine_g4()
        got = evaluate_periodic(g, "a", EvPeriodicWord((), (2,)))
        assert got == EvPeriodicWord((), (1,))
        # 64-step expansion oracle
        out, _ = evaluate(g, "a", (2,) * 64)
        assert got.prefix(len(out)) == out

    def test_letter_complement(self):
        piR = letter_complement(4)
        got = evaluate_periodic(piR, "0", EvPeriodicWord((0,), (1,)))
        assert got == EvPeriodicWord((3,), (2,))

    @given(st.integers(0, 10**9),
           st.lists(st.integers(0, 1), max_size=3),
           st.lists(st.integers(0, 1), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_agrees_with_long_expansion(self, seed, pre, per):
        T = random_machine(seed, n_choices=(2,))
        x = EvPeriodicWord(pre, per)
        got = evaluate_periodic(T, T.states[0], x)
        out, _ = evaluate(T, T.states[0], x.prefix(48))
        assert got.prefix(len(out)) == out

    def test_degenerate_cycle_detected(self):
        T = Transducer(2, {"q": {0: (EMPTY, "q"), 1: ((1,), "q")}})
        with pytest.raises(DegenerateTransducer):
            evaluate_periodic(T, "q", EvPeriodicWord((), (0,)))


class TestProduct:
    def test_identity_law(self):
        g = machine_g4()
        P = product(identity_transducer(4), g)
        assert minimize_rooted(P, ("0", "a")) == minimize_rooted(g, "a")

    def test_involution(self):
        piR = letter_complement(2)
        P = product(piR, piR)
        assert minimize_rooted(P, ("0", "0")) == minimize_rooted(identity_transducer(2), "0")

    def test_g_squared_acts_as_delayed_identity(self):
        # the raw square is the one-step delayed copy: pending prefix 0 from
        # the pair state (a,a), then the input verbatim; its core is the
        # identity element, which is the involution statement
        g = machine_g4()
        P = product(g, g)
        for k in range(7):
            for w in cartesian(range(4), repeat=k):
                out, _ = evaluate(P, ("a", "a"), w)
                assert out == ((0,) + w[:-1] if w else ())
        from cantortx.group import canonical_core
        assert canonical_core(P) == canonical_core(identity_transducer(4))

    def test_behaviorally_associative(self):
        T, U = machine_T(3), machine_U(3)
        piR = letter_complement(3)
        left = product(product(T, U), piR)
        right = product(T, product(U, piR))
        for k in range(6):
            for w in cartesian(range(3), repeat=k):
                a, _ = evaluate(left, (("a", "p"), "0"), w)
                b, _ = evaluate(right, ("a", ("p", "0")), w)
                m = min(len(a), len(b))
                assert a[:m] == b[:m]


class TestCommonPrefixes:
    def test_two_letter_example_against_oracle(self):
        # one state over n=2 with outputs 0 -> 00 and 1 -> 01
        T = Transducer(2, {"q": {0: ((0, 0), "q"), 1: ((0, 1), "q")}})
        assert common_prefixes(T)["q"] == brute_gcp_all_outputs(T, "q") == (0,)

    def test_complete_response_machines(self):
        for M in (machine_g4(), machine_T(3), identity_transducer(2)):
            c = common_prefixes(M)
            assert all(v == EMPTY for v in c.values())

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, seed):
        T = random_machine(seed)
        try:
            c = common_prefixes(T)
        except DepthExceeded as exc:
            # the named state's map is constant: its depth-8 outputs are
            # all prefixes of one word
            named = [q for q in T.states if f"state {q!r} " in str(exc)]
            assert len(named) == 1, str(exc)
            outs = [evaluate(T, named[0], w)[0]
                    for w in cartesian(range(T.n), repeat=8)]
            longest = max(outs, key=len)
            assert all(longest[:len(w)] == w for w in outs)
            return
        for q in T.states:
            assert c[q] == brute_gcp_all_outputs(T, q)

    def test_unproductive_rejected(self):
        T = Transducer(2, {"q": {0: (EMPTY, "q"), 1: ((1,), "q")}})
        with pytest.raises(DegenerateTransducer):
            common_prefixes(T)


def reference_common_prefixes(T, bound=64, states=None):
    """The earlier common_prefixes: downward iteration from one reference
    output of `bound` letters per state, kept as the oracle for the exact
    shortest-path pass."""
    pool = T.states if states is None else tuple(states)
    check_productive(T, pool)
    ref = {}
    for q in pool:
        out = []
        s = q
        guard = 0
        while len(out) < bound:
            w, s = T.step(s, 0)
            out.extend(w)
            guard += 1
            if guard > bound * len(pool) + len(pool) + 1:
                raise DegenerateTransducer("letter-0 path stopped producing output")
        ref[q] = tuple(out[:bound])
    g = ref
    maxiter = 2 * bound * len(pool) + len(pool) + 8
    for _ in range(maxiter):
        new = {q: gcp([w + g[p] for w, p in T.row(q)]) for q in pool}
        if new == g:
            break
        g = new
    else:
        raise DepthExceeded(
            f"common output prefixes did not stabilize within {maxiter} rounds"
        )
    for q, w in g.items():
        if len(w) >= bound:
            raise DepthExceeded(
                f"forced output at state {q!r} reaches the depth bound {bound}"
            )
    return g


def outcome(fn, *args, **kw):
    """The result of fn, or the type and message of the DepthExceeded it
    raises."""
    try:
        return fn(*args, **kw)
    except DepthExceeded as exc:
        return (DepthExceeded, str(exc))


def forced_word(length):
    return tuple((j * j + 1) % 3 for j in range(length))


def constant_prefix_machine(length):
    """State s owes the word forced_word(length) before copying its input."""
    u = forced_word(length)
    return Transducer(3, {
        "s": {i: (u + (i,), "id") for i in range(3)},
        "id": {i: ((i,), "id") for i in range(3)},
    })


def delay_line_machine(length):
    """A chain d0 .. d(length-1) emitting one letter of forced_word(length)
    per step whatever it reads, then a copier: the forced output of dj is the
    word from letter j on."""
    u = forced_word(length)
    table = {}
    for j in range(length):
        nxt = f"d{j + 1}" if j + 1 < length else "id"
        table[f"d{j}"] = {i: ((u[j],), nxt) for i in range(3)}
    table["id"] = {i: ((i,), "id") for i in range(3)}
    return Transducer(3, table)


class TestShortReferences:
    """Forced outputs of every length are exact, with no length bound: the
    hand-built machines owe known words, and the fixed-reference routine
    agrees wherever it is cheap to run."""

    LENGTHS = (7, 8, 9, 16, 63, 64, 200, 500)

    def test_hand_built_forced_lengths(self):
        for length in self.LENGTHS:
            u = forced_word(length)
            M = constant_prefix_machine(length)
            assert common_prefixes(M) == {"s": u, "id": EMPTY}
            if length <= 64:
                assert reference_common_prefixes(M, length + 1) == {"s": u, "id": EMPTY}
            M = delay_line_machine(length)
            want = {f"d{j}": u[j:] for j in range(length)}
            want["id"] = EMPTY
            start = time.perf_counter()
            c = common_prefixes(M)
            assert time.perf_counter() - start < 1.0, length
            assert c == want and list(c) == list(M.states)
            if length <= 64:
                assert reference_common_prefixes(M, length + 1) == want

    def test_forced_output_of_64_letters(self):
        # the fixed 64-letter bound used to reject this valid machine
        M = constant_prefix_machine(64)
        assert common_prefixes(M)["s"] == forced_word(64)
        S, root = minimize_rooted(M, "s")
        assert [S.output(root, i) for i in range(3)] == [
            forced_word(64) + (i,) for i in range(3)]

    def test_single_point_image_raises_as_before(self):
        # z outputs 0 whatever it reads: its image is one point and its
        # forced output is infinite
        M = Transducer(2, {
            "p": {0: ((1,), "z"), 1: ((0,), "p")},
            "z": {0: ((0,), "z"), 1: ((0,), "z")},
        })
        assert outcome(reference_common_prefixes, M)[0] is DepthExceeded
        assert outcome(common_prefixes, M) == (
            DepthExceeded,
            "state 'z' maps every input to one point, so its forced output is infinite")

    def test_random_machines_match_reference(self):
        # the same answers as the fixed 64-letter reference, and DepthExceeded
        # on the same machines: none of these owes 64 letters or more
        raised = 0
        for seed in range(1500):
            M = random_machine(seed, n_choices=(2, 3, 4), max_states=6)
            want = outcome(reference_common_prefixes, M)
            got = outcome(common_prefixes, M)
            if isinstance(want, tuple):
                assert isinstance(got, tuple) and got[0] is DepthExceeded, seed
                raised += 1
            else:
                assert got == want, seed
        assert raised > 0

    def test_group_products_match_reference(self):
        # g^-1 . g^k owes k letters and g^-1 . g^k . g^k owes 2k, so the
        # forced outputs reach 32 letters; g^k . g owes none
        from cantortx.group import GroupElement, group_product, invert_element

        lengths = set()
        for n in (3, 4, 5):
            for make in (machine_T, machine_U):
                g = GroupElement.from_machine(make(n))
                ginv = invert_element(g).machine
                power = g
                for k in range(1, 17):
                    machines = [product(power.machine, g.machine),
                                product(ginv, power.machine)]
                    if k in (5, 9, 16):
                        machines.append(product(machines[1], power.machine))
                    for M in machines:
                        want = outcome(reference_common_prefixes, M)
                        assert outcome(common_prefixes, M) == want, (make.__name__, n, k)
                        lengths.add(max(len(w) for w in want.values()))
                    power = group_product(power, g)
        assert {0, 7, 8, 9, 16, 18, 32} <= lengths


class TestIncompleteResponse:
    def test_rooted_removal_keeps_behavior_and_completes(self):
        T = Transducer(2, {"q": {0: ((0, 0), "q"), 1: ((0, 1), "q")}})
        S, root = minimize_rooted(T, "q")
        # single-letter outputs now carry the full forced prefix (depth-8 oracle)
        for i in range(2):
            outs = [evaluate(T, "q", (i,) + w)[0]
                    for w in cartesian(range(2), repeat=8)]
            assert S.output(root, i) == gcp(outs)
        # behaviour unchanged
        for k in range(7):
            for w in cartesian(range(2), repeat=k):
                a, _ = evaluate(T, "q", w + (0,) * 8)
                b, _ = evaluate(S, root, w + (0,) * 8)
                m = min(len(a), len(b))
                assert a[:m] == b[:m]

    def test_already_complete_machines_unchanged(self):
        for M, root in ((identity_transducer(3), "0"), (machine_T(3), "a")):
            S, _ = minimize_rooted(M, root)
            assert len(S.states) == len(M.states)


class TestOmegaEquivalence:
    def test_g_states_differ(self):
        assert not omega_equivalent(machine_g4(), "a", "b")

    def test_duplicated_identity_states_equivalent(self):
        T = Transducer(
            2,
            {
                "p": {0: ((0,), "q"), 1: ((1,), "p")},
                "q": {0: ((0,), "p"), 1: ((1,), "q")},
            },
        )
        assert omega_equivalent(T, "p", "q")

    def test_single_state_self(self):
        I = identity_transducer(4)
        assert omega_equivalent(I, "0", "0")


class TestMinimizeRooted:
    def test_t3_already_minimal(self):
        T = machine_T(3)
        M, root = minimize_rooted(T, "a")
        assert len(M.states) == 3
        # depth-8 behaviour oracle
        for w in cartesian(range(3), repeat=8):
            a, _ = evaluate(T, "a", w)
            b, _ = evaluate(M, root, w)
            m = min(len(a), len(b))
            assert a[:m] == b[:m]

    def test_involution_square_is_identity(self):
        piR = letter_complement(2)
        P = product(piR, piR)
        M, root = minimize_rooted(P, ("0", "0"))
        assert M == identity_transducer(2).__class__(2, {root: {0: ((0,), root), 1: ((1,), root)}})

    def test_g_squared_minimizes_to_entry_plus_identity(self):
        g = machine_g4()
        M, root = minimize_rooted(product(g, g), ("a", "a"))
        # pending prefix 0 at the entry state, identity afterwards
        assert len(M.states) == 2
        sink = M.dest(root, 0)
        assert all(M.output(sink, i) == (i,) and M.dest(sink, i) == sink for i in range(4))
        assert all(M.output(root, i) == (0, i) and M.dest(root, i) == sink for i in range(4))

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_canonical_on_duplicates(self, seed):
        from hypothesis import assume
        from cantortx.transducer import DepthExceeded

        T = random_machine(seed)
        try:
            common_prefixes(T)
        except DepthExceeded:
            assume(False)
        rng = random.Random(seed ^ 0xABCDEF)
        victim = rng.choice(T.states)
        copy = ("dup", victim)
        table = {q: {i: (T.output(q, i), T.dest(q, i)) for i in range(T.n)} for q in T.states}
        table[copy] = dict(table[victim])
        # reroute a few edges into the duplicate
        for q in T.states:
            for i in range(T.n):
                if table[q][i][1] == victim and rng.random() < 0.5:
                    table[q][i] = (table[q][i][0], copy)
        D = Transducer(T.n, table)
        M1, r1 = minimize_rooted(T, T.states[0])
        M2, r2 = minimize_rooted(D, T.states[0])
        assert M1 == M2 and r1 == r2
        M3, r3 = minimize_rooted(M1, r1)
        assert M3 == M1 and r3 == r1


# --- the one reduction routine against the rooted pipeline it replaced -------


def reference_minimize_rooted(T, root):
    """minimize_rooted as written before minimal_rows: the forced outputs of
    the states reachable from the root are stripped, a root with a forced
    output gets a fresh entry state that keeps it and joins the partition,
    and the blocks are numbered breadth-first from the entry's block."""
    from cantortx.transducer import (
        bfs_numbering,
        partition_rows,
        quotient_rows,
        reachable,
        renamed_rows,
        strip_rows,
    )

    pool = reachable(T, [root])
    c = common_prefixes(T, states=pool)
    rows = strip_rows({q: T._rows[q] for q in pool}, c)
    entry = root
    if c[root] != EMPTY:
        entry = ("__root__", root)
        rows[entry] = tuple((w + c[p], p) for w, p in T._rows[root])
    part = partition_rows(rows)
    blocks = quotient_rows(rows, part)
    names = bfs_numbering(blocks, [part[entry]])
    return Transducer._from_rows(T.n, renamed_rows(blocks, names)), "0"


def minimized_text(T, root, minimize):
    """The serialization of minimize(T, root), or the type and message of
    what it raises."""
    from cantortx.textio import serialize

    try:
        M, r = minimize(T, root)
    except (DegenerateTransducer, DepthExceeded) as exc:
        return type(exc), str(exc)
    return serialize(M), r


class TestMinimalRowsReference:
    def test_random_machines_from_every_root(self):
        from cantortx.transducer import reachable

        raised = entries = 0
        for seed in range(1500):
            T = random_machine(seed, max_states=5, productive=seed % 4 != 0)
            for root in T.states:
                want = minimized_text(T, root, reference_minimize_rooted)
                assert minimized_text(T, root, minimize_rooted) == want, (seed, root)
                if isinstance(want[0], type):
                    raised += 1
                elif common_prefixes(T, states=reachable(T, [root]))[root]:
                    entries += 1  # a fresh entry state keeps the forced output
        assert raised > 100 and entries > 100

    def test_hand_built_cases(self):
        g = machine_g4()
        cases = [
            (product(g, g), ("a", "a")),  # forced output 0: a fresh entry
            (Transducer(2, {"q": {0: ((0, 0), "q"), 1: ((0, 1), "q")}}), "q"),
            (Transducer(2, {"q": {0: ((0,), "p"), 1: ((1,), "q")},
                            "p": {0: ((0,), "p"), 1: ((1,), "q")}}), "p"),
            (machine_T(3), "a"),
        ]
        for T, root in cases:
            want = minimized_text(T, root, reference_minimize_rooted)
            assert minimized_text(T, root, minimize_rooted) == want, root

    def test_powers_of_T_and_U(self):
        from cantortx.group import GroupElement, group_product

        for make in (machine_T, machine_U):
            for n in (3, 5):
                g = GroupElement.from_machine(make(n))
                power = g
                for k in range(1, 9):
                    P = product(power.machine, g.machine)
                    for root in P.states[:: max(1, len(P.states) // 12)]:
                        want = minimized_text(P, root, reference_minimize_rooted)
                        assert minimized_text(P, root, minimize_rooted) == want, (n, k, root)
                    power = group_product(power, g)
