import random
from itertools import product as cartesian

import pytest

from cantortx.words import EMPTY, subtract_prefix
from cantortx.transducer import (
    COMPLETE_RESPONSE,
    DegenerateTransducer,
    DepthExceeded,
    Transducer,
    common_prefixes,
    evaluate,
    marked,
)
from cantortx.images import NotClopenImage, images
from cantortx.initial import (
    InitialTransducer,
    evaluate_initial,
    minimize_initial,
    product_initial,
    split_rooted,
)
from cantortx.invert import (
    EmptyPreimage,
    inverse_closure,
    invert_initial,
    is_bisynchronizing_core,
    bisynchronizing_failure_initial,
    preimage_gcp,
    _preimage_gcp,
)
from cantortx.machines import (
    cycle_transducer,
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    RealizeError,
    realize,
    state_wrapper,
    swap_transducer,
)
from cantortx.group import (
    GroupElement,
    canonical_core,
    group_product,
    invert_element,
    is_identity,
)
from cantortx.signature import inverse_reduced_signature, member_over_roots
from cantortx.textio import parse, serialize
from cantortx.verify import _close_pool_products, _generator_pool


def gcp(words):
    """Greatest common prefix of a nonempty list of words."""
    first, k = words[0], 0
    while k < len(first) and all(len(w) > k and w[k] == first[k] for w in words):
        k += 1
    return first[:k]


def brute_preimage_gcp(T, q, v, depth=6):
    """Oracle: gcp of the depth-`depth` inputs whose output settles inside
    the cone v."""
    hits = []
    for w in cartesian(range(T.n), repeat=depth):
        out, _ = evaluate(T, q, w)
        assert len(out) >= len(v), "oracle depth too small"
        if out[: len(v)] == tuple(v):
            hits.append(w)
    assert hits
    return gcp(hits)


class TestPreimageGcp:
    def test_identity(self):
        I = identity_transducer(3)
        for v in [(0,), (2, 1), (1, 0, 2)]:
            assert preimage_gcp(I, "0", v) == v

    def test_letter_complement(self):
        piR = letter_complement(4)
        assert preimage_gcp(piR, "0", (2, 3)) == (1, 0)

    def test_g_boundary_case(self):
        g = machine_g4()
        # inputs 0 and 1 both land in the cone 0, so the prefix is empty
        assert preimage_gcp(g, "a", (0,)) == EMPTY
        assert preimage_gcp(g, "a", (0,)) == brute_preimage_gcp(g, "a", (0,))

    def test_against_oracle(self):
        for M in (machine_g4(), machine_T(3), machine_U(3)):
            q = M.states[0]
            for k in (1, 2):
                for v in cartesian(range(M.n), repeat=k):
                    try:
                        got = preimage_gcp(M, q, v)
                    except EmptyPreimage:
                        # no depth-6 input may land inside v either
                        for w in cartesian(range(M.n), repeat=6):
                            out, _ = evaluate(M, q, w)
                            assert out[: len(v)] != v
                        continue
                    assert got == brute_preimage_gcp(M, q, v)

    def test_empty_preimage_raises(self):
        g = machine_g4()
        with pytest.raises(EmptyPreimage):
            preimage_gcp(g, "a", (2,))  # U_2 misses im(a)


class TestInvertInitial:
    def test_identity_wrapper_is_self_inverse(self):
        A = minimize_initial(state_wrapper(identity_transducer(3), "0", 2))
        assert invert_initial(A) == A

    def test_complement_wrapper_is_involution(self):
        A = minimize_initial(state_wrapper(letter_complement(3), "0", 1))
        assert invert_initial(A) == A

    def test_realized_element_inverts(self):
        g = machine_g4()
        A = realize(g, 3)
        Ainv = invert_initial(A)
        P = minimize_initial(product_initial(A, Ainv))
        assert minimize_initial(P) == minimize_initial(state_wrapper(identity_transducer(4), "0", 3))
        # and pointwise: round trip on padded words
        pad = (0,) * 6
        for a in range(3):
            for w in cartesian(range(4), repeat=3):
                out, _ = evaluate_initial(A, a, w + pad)
                b, tail = split_rooted(out)
                back, _ = evaluate_initial(Ainv, b, tail)
                b2, tail2 = split_rooted(back)
                k = min(len(tail2), len(w + pad))
                assert b2 == a and tail2[:k] == (w + pad)[:k]

    def test_both_compositions_trivial_for_pool(self):
        ident2 = state_wrapper(identity_transducer(3), "0", 2)
        for A in (
            minimize_initial(state_wrapper(machine_T(3), "a", 2)),
            minimize_initial(state_wrapper(machine_U(3), "p", 2)),
            minimize_initial(state_wrapper(letter_complement(3), "0", 2)),
        ):
            Ainv = invert_initial(A)
            assert minimize_initial(product_initial(A, Ainv)) == minimize_initial(ident2)
            assert minimize_initial(product_initial(Ainv, A)) == minimize_initial(ident2)

    def test_non_invertible_rejected(self):
        from cantortx.words import InvalidInput

        A = state_wrapper(machine_g4(), "a", 1)  # image misses half the space
        with pytest.raises(InvalidInput):
            invert_initial(A)


class TestInvertCore:
    def test_involution_elements(self):
        g = GroupElement.from_machine(machine_g4())
        assert invert_element(g) == g
        piR = GroupElement.from_machine(letter_complement(5))
        assert invert_element(piR) == piR

    def test_group_inverse_law(self):
        T3 = GroupElement.from_machine(machine_T(3))
        assert is_identity(group_product(T3, invert_element(T3)))
        assert is_identity(group_product(invert_element(T3), T3))
        U4 = GroupElement.from_machine(machine_U(4))
        assert is_identity(group_product(U4, invert_element(U4)))

    def test_double_inverse(self):
        for M in (machine_T(3), machine_U(4), oplus(2, swap_transducer(), 4)):
            g = GroupElement.from_machine(M)
            assert invert_element(invert_element(g)) == g

    def test_root_independence(self):
        for M in (machine_g4(), machine_T(3), machine_U(3)):
            g = GroupElement.from_machine(M)
            results = {canonical_core(inverse_closure(g.machine, q)) for q in g.machine.states}
            assert results == {invert_element(g).machine}

    def test_unknown_root_is_a_domain_error(self):
        from cantortx.words import InvalidInput

        for M in (machine_T(3), GroupElement.from_machine(machine_T(3)).machine):
            with pytest.raises(InvalidInput, match="no transitions for state 'z'"):
                inverse_closure(M, "z")

    def test_inverse_signature_cross_check(self):
        for M in (machine_g4(), machine_T(3), machine_U(4), letter_complement(6)):
            g = GroupElement.from_machine(M)
            assert inverse_reduced_signature(g.machine) == invert_element(g).rsig


class TestBisynchronizing:
    def test_initial_examples(self):
        assert bisynchronizing_failure_initial(realize(machine_g4(), 3)) is None
        assert bisynchronizing_failure_initial(
            state_wrapper(identity_transducer(3), "0", 2)
        ) is None
        W = realize(oplus(2, swap_transducer(), 4), 3, ordered=False)
        assert bisynchronizing_failure_initial(W) is None

    def test_failure_reason_distinguishes_noninvertible(self):
        A = state_wrapper(machine_g4(), "a", 1)
        reason = bisynchronizing_failure_initial(A)
        assert reason is not None and "not invertible" in reason

    def test_core_variant(self):
        assert is_bisynchronizing_core(machine_g4())
        assert is_bisynchronizing_core(machine_T(4))
        assert is_bisynchronizing_core(oplus(3, identity_transducer(3), 6))


def closure_bound(T):
    """The greatest |w_i| + depth im(p_i) over the edges of T, the depth
    being the length of the longest cone of the image antichain: the owed
    word w of every inverse-closure state (w, q) is shorter."""
    img = images(T)
    depth = {p: max(map(len, img[p].cones)) for p in T.states}
    return max(len(w) + depth[p] for q in T.states for w, p in T.row(q))


class TestClosureBound:
    """The bound that makes every inverse closure finite holds on the
    verify pools and on powers of T and U."""

    def test_owed_words_are_shorter_than_the_bound(self):
        machines = []
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            built = layers[1] + layers[2] + layers[3]
            machines += [g.machine for g in built + [invert_element(g) for g in built]]
        for make, n, top in ((machine_T, 3, 16), (machine_U, 3, 16), (machine_T, 5, 8),
                             (machine_U, 5, 8), (machine_U, 4, 8)):
            machines += power_machines(make, n, top)
        checked = 0
        for M in machines:
            bound = closure_bound(M)
            for w, q in inverse_closure(M).states:
                assert len(w) < bound, (M, w, q)
                checked += 1
        assert checked > 3000, checked


# --- the preimage walk against the searches it replaced ----------------------


_OPEN = object()  # memo mark of a subproblem whose search is under way
_NEW = object()  # memo lookup default of a subproblem not met yet


def _preimage_search(moves, memo, q, v):
    """The memoized preimage search that the walk replaced, kept as a
    reference: the gcp of the inputs from q whose output lies in the cone
    v, or None when there is no such input.  `moves[p]` lists (symbol,
    output, output length, destination) at state p; `memo` maps (state,
    rest of the cone) to its answer and keeps every subproblem solved here.

    A symbol whose output covers the rest of the cone contributes its
    one-symbol cone; a symbol whose output is a proper prefix of it
    contributes itself followed by the answer at (destination, what is
    left).  The gcp of the contributions is the answer.  The contributions
    of one subproblem start with its symbols, which are distinct, so the
    gcp of two of them is empty: one contribution is the answer, and a
    second makes it EMPTY at once and stops the subproblem.  The search
    keeps its own stack; a subproblem met again while it is still open lies
    on an empty-output cycle."""
    top = (q, v)
    stack = []  # frames [(state, rest of the cone), next move, answer so far]
    if top not in memo:
        memo[top] = _OPEN
        stack.append([top, 0, None])
    while stack:
        frame = stack[-1]
        (p, t), j, best = frame
        lt = len(t)
        opts = moves[p]
        stop = len(opts)
        while j < stop and best is not EMPTY:
            sym, w, lw, p2 = opts[j]
            j += 1
            if lw >= lt:
                if w[:lt] != t:
                    continue
                got = EMPTY
            elif t[:lw] != w:
                continue
            else:
                sub = (p2, t[lw:])
                got = memo.get(sub, _NEW)
                if got is _NEW:  # solve it first, then read this move again
                    memo[sub] = _OPEN
                    frame[1], frame[2] = j - 1, best
                    stack.append([sub, 0, None])
                    break
                if got is _OPEN:
                    raise DegenerateTransducer(
                        f"cycle through state {p2!r} outputs the empty word"
                    )
            if got is not None:
                best = (sym,) + got if best is None else EMPTY
        else:
            memo[frame[0]] = best
            stack.pop()
    return memo[top]


def _moves(M):
    """(symbol, output, output length, destination) for every symbol of every
    state of a plain or initial machine."""
    return {
        q: tuple((s, w, len(w), p) for s, (w, p) in zip(M.symbols_at(q), M.row(q)))
        for q in M.states
    }


def gcp_outcome(M, q, v):
    """What preimage_gcp(M, q, v) gives: its answer, None for an empty
    preimage, or the class and message of what it raised."""
    try:
        return preimage_gcp(M, q, v)
    except EmptyPreimage:
        return None
    except (DegenerateTransducer, NotClopenImage) as e:
        return ("raised", type(e), str(e))


def images_failure(M):
    """The class and message of what images(M) raises, or None."""
    try:
        images(M)
    except (DegenerateTransducer, NotClopenImage) as e:
        return ("raised", type(e), str(e))
    return None


def replay_walks(walks):
    """Replay recorded _preimage_gcp calls against the reference search,
    one memo per machine as a closure kept one: the walk's prefix is the
    search's answer, and it leads from q to the walk's end state with an
    output of the walk's length.  Returns the number of walks."""
    memos = {}
    for c in walks:
        M, q, v = c["M"], c["q"], c["v"]
        moves, memo = memos.setdefault(id(M), (_moves(M), {}))
        want = _preimage_search(moves, memo, q, v)
        u, p, k = _preimage_gcp(M, c["img"], c["depth"], q, v)
        assert u == want, (serialize(M), q, v)
        out, end = evaluate(M, q, u)
        assert (end, len(out)) == (p, k)
    return len(walks)


# --- the memoized preimage search against the depth-first search it replaced


def reference_preimage_gcp(M, q, v, symbols, max_nodes=200000):
    """The depth-first preimage search with a node budget that the memoized
    search replaced, kept as a reference; `symbols(p)` lists the input
    symbols at p (range(n) for a plain machine, symbols_at for an initial
    one)."""
    best = None
    count = 0
    stack = [(q, tuple(v), EMPTY)]
    nodes = 0
    while stack:
        p, t, u = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise DepthExceeded("preimage exploration exceeded its node budget")
        for sym in symbols(p):
            w, p2 = M.step(p, sym)
            k = min(len(w), len(t))
            if w[:k] != t[:k]:
                continue
            if len(w) >= len(t):
                cone = u + (sym,)
                best = cone if best is None else gcp([best, cone])
                count += 1
            else:
                stack.append((p2, t[len(w):], u + (sym,)))
        if best == EMPTY and count > 1:
            return EMPTY
    if best is None:
        raise EmptyPreimage(f"cone {v} misses the image of state {q!r}")
    return best


def reference_inverse_closure(T, root=None):
    """inverse_closure built on the reference depth-first search."""
    img = images(T)
    if root is None:
        root = T.states[0]
    letters = lambda p: range(T.n)
    seeds = []
    for a in img[root].cones:
        phi = reference_preimage_gcp(T, root, a, letters)
        out, p = evaluate(T, root, phi)
        seeds.append((subtract_prefix(out, a), p))
    table = {}
    queue = list(dict.fromkeys(seeds))
    known = set(queue)
    while queue:
        w, q = queue.pop()
        row = {}
        for i in range(T.n):
            v = reference_preimage_gcp(T, q, w + (i,), letters)
            out, p = evaluate(T, q, v)
            nxt = (subtract_prefix(out, w + (i,)), p)
            row[i] = (v, nxt)
            if nxt not in known:
                known.add(nxt)
                queue.append(nxt)
        table[(w, q)] = row
    return Transducer(T.n, table)


def power_machines(make, n, top):
    g = GroupElement.from_machine(make(n))
    acc = g
    for _ in range(top):
        yield acc.machine
        acc = group_product(acc, g)


def oracle_cases():
    yield machine_g4()
    yield oplus(2, swap_transducer(), 4)
    yield oplus(2, swap_transducer(), 6)
    yield oplus(3, cycle_transducer(3), 6)
    for n in (3, 4, 5):
        for make in (machine_T, machine_U):
            yield from power_machines(make, n, 3)


def depth_for(T, q, need):
    """Least depth whose inputs from q all output at least `need` letters."""
    minlen = {p: 0 for p in T.states}
    depth = 0
    while minlen[q] < need:
        minlen = {p: min(len(w) + minlen[d] for w, d in T.row(p)) for p in T.states}
        depth += 1
    return depth


def doubling_machine():
    """Productive, but every input maps into 0^w and the input tree under a
    cone 0^k has 4^k leaves: the depth-first search ran out of nodes."""
    return Transducer(
        2,
        {
            "a": {0: ((), "b"), 1: ((), "b")},
            "b": {0: ((0,), "a"), 1: ((0,), "a")},
        },
    )


class TestMemoizedPreimage:
    def test_against_brute_oracle(self):
        # the oracle enumerates n^depth inputs, so long cones of the larger
        # powers are left out; every machine has its one-letter cones checked
        for M in oracle_cases():
            img = images(M)
            checked = 0
            for q in M.states:
                for k in (1, 2):
                    depth = depth_for(M, q, k)
                    if M.n**depth > 3000:
                        continue
                    for v in cartesian(range(M.n), repeat=k):
                        if not img[q].meets_cone(v):
                            with pytest.raises(EmptyPreimage):
                                preimage_gcp(M, q, v)
                            continue
                        assert preimage_gcp(M, q, v) == brute_preimage_gcp(M, q, v, depth)
                        checked += 1
            assert checked >= len(M.states)

    def test_shared_memo_equals_fresh_calls(self):
        # the reference search with one memo over all asks, against a fresh
        # walk per ask, where images succeeds; elsewhere the walk raises
        # what images raises
        rng = random.Random(5)
        for M in oracle_cases():
            failure = images_failure(M)
            moves = _moves(M)
            memo = {}
            asks = [
                (q, v)
                for q in M.states
                for k in (1, 2, 3)
                for v in cartesian(range(M.n), repeat=k)
            ]
            rng.shuffle(asks)
            for q, v in asks:
                got = gcp_outcome(M, q, v)
                if failure is not None:
                    assert got == failure
                    continue
                assert got == _preimage_search(moves, memo, q, v)

    @pytest.mark.parametrize("k", [10, 30, 3000])
    def test_no_node_budget(self, k):
        assert preimage_gcp(identity_transducer(2), "0", (0,) * k) == (0,) * k
        # every input of the doubling machine maps into 0^w: the image of
        # "a" is one point, not clopen
        with pytest.raises(NotClopenImage):
            preimage_gcp(doubling_machine(), "a", (0,) * k)

    def test_budget_ran_out_in_the_depth_first_search(self):
        M = doubling_machine()
        with pytest.raises(DepthExceeded):
            reference_preimage_gcp(M, "a", (0,) * 8, lambda p: range(2), max_nodes=20000)

    def test_empty_output_cycle_is_degenerate(self):
        from cantortx.transducer import DegenerateTransducer

        M = Transducer(2, {"a": {0: ((), "a"), 1: ((1,), "a")}})
        with pytest.raises(DegenerateTransducer):
            preimage_gcp(M, "a", (0,))

    def test_unknown_state(self):
        from cantortx.words import InvalidInput

        with pytest.raises(InvalidInput):
            preimage_gcp(machine_g4(), "zz", (0,))

    def test_closure_equals_depth_first_closure_on_verify_pools(self):
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            for X in layers[1] + layers[2] + layers[3]:
                M = X.machine
                got = inverse_closure(M)
                want = reference_inverse_closure(M)
                assert got == want and got.states == want.states

    def test_closure_equals_depth_first_closure_on_t5_powers(self):
        for M in power_machines(machine_T, 5, 6):
            for root in M.states:
                got = inverse_closure(M, root)
                want = reference_inverse_closure(M, root)
                assert got == want and got.states == want.states

    def test_initial_search_equals_depth_first_search(self):
        for M, r in ((machine_g4(), 3), (machine_T(3), 2), (machine_U(4), 3),
                     (oplus(2, swap_transducer(), 4), 3)):
            A = minimize_initial(realize(M, r, ordered=False))
            for q in A.states:
                if q == A.root:
                    targets = [(b,) + w for b in A.symbols_at(q) for w in ((), (0,), (1,))]
                else:
                    targets = [w for k in (1, 2) for w in cartesian(range(A.n), repeat=k)]
                for v in targets:
                    try:
                        want = reference_preimage_gcp(A, q, v, A.symbols_at)
                    except EmptyPreimage:
                        with pytest.raises(EmptyPreimage):
                            preimage_gcp(A, q, v)
                        continue
                    assert preimage_gcp(A, q, v) == want


def pool_elements():
    """Layers 1 to 3 of the verify pools at n = 3, 4 and 5."""
    for n in (3, 4, 5):
        layers, _ = _close_pool_products(_generator_pool(n), 3)
        yield from layers[1] + layers[2] + layers[3]


# --- complete-response closures ----------------------------------------------


class TestCompleteResponseClosures:
    """Every inverse state (w, q) has (w)L_q empty, so its forced output is
    empty (the invert docstring).  inverse_closure and invert_initial mark
    what they build complete_response, and canonical_core and
    minimize_initial merge those states with no forced-output pass; here
    the theorem is checked, and the merge against the full reduction."""

    def test_pool_closures(self, record_calls):
        calls = record_calls(("common_prefixes",))
        checked = 0
        for g in pool_elements():
            C = inverse_closure(parse(serialize(g.machine)))
            assert marked(C, COMPLETE_RESPONSE)
            assert set(common_prefixes(C).values()) == {EMPTY}
            # the same rows unmarked take the full reduction,
            # merged_rows(rows, common_prefixes(core))
            full = Transducer._from_rows(C.n, C._rows)
            calls.clear()
            got = canonical_core(C)
            assert calls["common_prefixes"] == []
            want = canonical_core(full)
            assert len(calls["common_prefixes"]) == 1
            assert serialize(got) == serialize(want)
            checked += len(C.states)
        assert checked > 1500, checked

    def test_raw_initial_inverses(self, record_calls):
        # realize checks bi-synchronization by inverting the realized
        # machine, and the raw inverse reaches minimize_initial
        calls = record_calls(("minimize_initial", "common_prefixes"))
        checked = 0
        for make, n, top in ((machine_T, 3, 4), (machine_U, 5, 2)):
            for M in power_machines(make, n, top):
                for r in range(1, n):
                    if not member_over_roots(M, r):
                        continue
                    calls.clear()
                    realize(M, r)
                    raws = [c["A"] for c in calls["minimize_initial"]
                            if marked(c["A"], COMPLETE_RESPONSE)]
                    assert len(raws) == 1
                    raw = raws[0]
                    interior = raw.states[1:]
                    assert all(common_prefixes(raw, states=interior)[q] == EMPTY
                               for q in interior)
                    assert not any(c["T"] is raw for c in calls["common_prefixes"])
                    copy = InitialTransducer(
                        raw.n, raw.r, dict(enumerate(raw.row(raw.root))),
                        {q: dict(enumerate(raw.row(q))) for q in interior}, root=raw.root)
                    assert copy._memo is None
                    assert serialize(minimize_initial(raw)) == serialize(minimize_initial(copy))
                    checked += 1
        assert checked >= 12, checked


# --- the one-contribution preimage search against the gcp search -------------


def reference_preimage_search(moves, memo, q, v):
    """The preimage search before it stopped at a second contribution, kept
    as a reference: it folds every contribution of a subproblem into the
    answer with gcp until the answer is empty."""
    top = (q, v)
    stack = []
    if top not in memo:
        memo[top] = _OPEN
        stack.append([top, 0, None])
    while stack:
        frame = stack[-1]
        (p, t), j, best = frame
        lt = len(t)
        opts = moves[p]
        while j < len(opts) and best != EMPTY:
            sym, w, lw, p2 = opts[j]
            j += 1
            if lw >= lt:
                if w[:lt] != t:
                    continue
                got = EMPTY
            elif t[:lw] != w:
                continue
            else:
                sub = (p2, t[lw:])
                got = memo.get(sub, _NEW)
                if got is _NEW:
                    memo[sub] = _OPEN
                    frame[1], frame[2] = j - 1, best
                    stack.append([sub, 0, None])
                    break
                if got is _OPEN:
                    raise DegenerateTransducer(
                        f"cycle through state {p2!r} outputs the empty word"
                    )
            if got is not None:
                cone = (sym,) + got
                best = cone if best is None else gcp((best, cone))
        else:
            memo[frame[0]] = best
            stack.pop()
    return memo[top]


def search_outcome(search, moves, memo, q, v):
    """The answer of one search, or the class and message it raised."""
    try:
        return search(moves, memo, q, v)
    except DegenerateTransducer as e:
        return ("raised", type(e), str(e))


def random_machine(rng, n):
    """1 to 4 states whose outputs are 0 to 2 letters long, two in five of
    them empty, so empty-output edges and cycles are common."""
    names = [f"s{k}" for k in range(rng.randint(1, 4))]

    def cell():
        out = tuple(rng.randrange(n) for _ in range(rng.choice((0, 0, 1, 1, 2))))
        return out, rng.choice(names)

    return Transducer(n, {q: {i: cell() for i in range(n)} for q in names})


class TestOneContributionSearch:
    def test_random_machines(self):
        # the walk against the reference search wherever images succeeds,
        # and the same exception as images elsewhere; the reference search
        # against the gcp search before it.  Few random machines have
        # clopen images, so seeded products of the verify generators at
        # n = 3..5 follow them.
        rng = random.Random(22)
        kinds = {"answer": 0, "empty": 0, "none": 0, "raised": 0}

        def check(M):
            n = M.n
            failure = images_failure(M)
            moves = _moves(M)
            for q in M.states:
                for k in range(4):
                    v = tuple(rng.randrange(n) for _ in range(k))
                    memo, ref_memo = {}, {}
                    want = search_outcome(_preimage_search, moves, memo, q, v)
                    ref = search_outcome(reference_preimage_search, moves, ref_memo, q, v)
                    assert want == ref and memo == ref_memo, (serialize(M), q, v)
                    got = gcp_outcome(M, q, v)
                    if failure is not None:
                        assert got == failure, (serialize(M), q, v)
                        kinds["raised"] += 1
                        continue
                    assert got == want, (serialize(M), q, v)
                    if got is None:
                        kinds["none"] += 1
                    elif got == EMPTY:
                        kinds["empty"] += 1
                    else:
                        kinds["answer"] += 1

        for _ in range(400):
            check(random_machine(rng, rng.randint(2, 4)))
        pools = {n: _generator_pool(n) for n in (3, 4, 5)}
        for _ in range(100):
            factors = rng.choices(pools[rng.randint(3, 5)], k=rng.randint(1, 4))
            g = factors[0]
            for h in factors[1:]:
                g = group_product(g, h)
            check(g.machine)
        assert min(kinds.values()) >= 100, kinds

    def test_pool_closure_steps(self, record_calls):
        # every walk of every pool closure, in the closure's order, against
        # the reference search with one memo per closure, as the closure
        # kept one; the reference search against the gcp search before it
        calls = record_calls(("_preimage_gcp",))
        asked = 0
        for g in pool_elements():
            calls.clear()
            inverse_closure(parse(serialize(g.machine)))
            walks = calls["_preimage_gcp"]
            assert replay_walks(walks) == len(walks)
            moves = _moves(walks[0]["M"])
            memo, ref_memo = {}, {}
            for c in walks:
                got = _preimage_search(moves, memo, c["q"], c["v"])
                assert got == reference_preimage_search(moves, ref_memo, c["q"], c["v"])
            assert memo == ref_memo
            asked += len(walks)
        assert asked > 5000, asked


def realized_machines():
    """The machines that tests/test_initial.py realizes: realize(g, r) of
    T:n^k and U:n^k, n = 3..5, k <= 3, at every r in 1..n-1, ordered and
    unordered, wherever g is realizable, and the letter complement at
    n = 4."""
    for n in (3, 4, 5):
        for make in (machine_T, machine_U):
            for M in power_machines(make, n, 3):
                for r in range(1, n):
                    for ordered in (True, False):
                        try:
                            yield realize(M, r, ordered)
                        except RealizeError:
                            continue
    for r in (1, 2, 3):
        for ordered in (True, False):
            yield realize(letter_complement(4), r, ordered)


class TestPreimageWalk:
    """The walk that reads (v)L_q off the images equals the memoized search
    it replaced on every step of every closure and inversion below."""

    def test_verify_pool_closures(self, record_calls):
        calls = record_calls(("_preimage_gcp",))
        walked = 0
        for n in (3, 4):
            layers = _close_pool_products(_generator_pool(n), 3)[0]
            for X in layers[1] + layers[2] + layers[3]:
                for root in X.machine.states:
                    calls.clear()
                    inverse_closure(parse(serialize(X.machine)), root)
                    walked += replay_walks(calls["_preimage_gcp"])
        assert walked > 20000, walked

    def test_t5_power_closures(self, record_calls):
        calls = record_calls(("_preimage_gcp",))
        walked = 0
        for M in power_machines(machine_T, 5, 6):
            for root in M.states:
                calls.clear()
                inverse_closure(parse(serialize(M)), root)
                walked += replay_walks(calls["_preimage_gcp"])
        assert walked > 1000, walked

    def test_realized_inversions(self, record_calls):
        # a copy read back from text is not marked minimal, so it is
        # minimized and inverted afresh
        calls = record_calls(("_preimage_gcp",))
        walked = machines = 0
        for A in realized_machines():
            calls.clear()
            invert_initial(parse(serialize(A)))
            walked += replay_walks(calls["_preimage_gcp"])
            machines += 1
        assert machines >= 100 and walked > 2000, (machines, walked)

    def test_long_cone_memory_is_linear(self):
        import tracemalloc

        I = identity_transducer(2)
        images(I)
        tracemalloc.start()
        try:
            assert preimage_gcp(I, "0", (0,) * 3000) == (0,) * 3000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
