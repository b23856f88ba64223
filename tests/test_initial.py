import hashlib
import json
import random
import sys
from functools import lru_cache
from itertools import product as cartesian
from pathlib import Path

import pytest

from cantortx.words import (
    EMPTY,
    EvPeriodicWord,
    ClopenSet,
    InvalidInput,
    subtract_prefix,
    whole_space,
)
from cantortx.transducer import (
    DegenerateTransducer,
    DepthExceeded,
    Transducer,
    common_prefixes,
    evaluate,
    restrict,
)
from cantortx.initial import (
    DONE,
    InitialTransducer,
    dot,
    evaluate_initial,
    evaluate_periodic_initial,
    minimize_initial,
    product_initial,
    rooted_word,
    split_rooted,
)
from cantortx.images import (
    NotClopenImage,
    images,
    is_homeomorphism_state,
    non_injective_states,
    whole,
)
from cantortx.synchronize import NotSynchronizing, canonical_core, core, core_states
from cantortx.invert import invert_initial, preimage_gcp
from cantortx.machines import (
    PrefixExchange,
    RealizeError,
    from_prefix_exchange,
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    realize,
    state_wrapper,
    reversing_complement_wrapper,
)
from cantortx.group import GroupElement, group_product
from cantortx.textio import serialize


def identity_wrapper(n, r):
    return state_wrapper(identity_transducer(n), "0", r)


class TestConstruction:
    def test_wrapper_evaluates(self):
        A = identity_wrapper(3, 2)
        out, q = evaluate_initial(A, 1, (0, 2, 1))
        assert split_rooted(out) == (1, (0, 2, 1))

    def test_root_cannot_be_reentered(self):
        with pytest.raises(InvalidInput):
            InitialTransducer(
                2, 1,
                {0: ((dot(0),), "s")},
                {"s": {0: ((0,), "q0"), 1: ((1,), "s")}},
            )

    def test_letters_before_root_rejected(self):
        with pytest.raises(InvalidInput):
            InitialTransducer(
                2, 1,
                {0: ((0,), "s")},  # plain letters before the output root
                {"s": {0: ((0,), "s"), 1: ((1,), "s")}},
            )

    def test_second_root_rejected(self):
        with pytest.raises(InvalidInput):
            InitialTransducer(
                2, 1,
                {0: ((dot(0),), "s")},
                {"s": {0: ((dot(0),), "s"), 1: ((1,), "s")}},
            )

    def test_rootless_cycle_rejected(self):
        with pytest.raises(InvalidInput):
            InitialTransducer(
                2, 1,
                {0: (EMPTY, "s")},
                {"s": {0: (EMPTY, "s"), 1: ((dot(0),), "t")},
                 "t": {0: ((0,), "t"), 1: ((1,), "t")}},
            )

    def test_empty_output_cycle_rejected(self):
        with pytest.raises(DegenerateTransducer):
            InitialTransducer(
                2, 1,
                {0: ((dot(0),), "s")},
                {"s": {0: (EMPTY, "s"), 1: ((1,), "s")}},
            )


class TestEvaluate:
    def test_delayed_root(self):
        # output root emitted on the second letter
        A = InitialTransducer(
            2, 2,
            {0: (EMPTY, "w"), 1: ((dot(1),), "id")},
            {
                "w": {0: (rooted_word(0, (0,)), "id"), 1: (rooted_word(1, EMPTY), "id")},
                "id": {0: ((0,), "id"), 1: ((1,), "id")},
            },
        )
        out, _ = evaluate_initial(A, 0, (0, 1))
        assert split_rooted(out) == (0, (0, 1))
        out, _ = evaluate_initial(A, 0, (1, 0))
        assert split_rooted(out) == (1, (0,))

    def test_periodic(self):
        A = identity_wrapper(3, 2)
        root, pt = evaluate_periodic_initial(A, 1, EvPeriodicWord((0,), (2, 1)))
        assert root == 1 and pt == EvPeriodicWord((0,), (2, 1))

    def test_periodic_reversing(self):
        W = reversing_complement_wrapper(4, 3)
        root, pt = evaluate_periodic_initial(W, 0, EvPeriodicWord((), (0,)))
        assert root == 2 and pt == EvPeriodicWord((), (3,))


class TestProductMinimize:
    def test_product_matches_functional_composition(self):
        g = machine_g4()
        A = state_wrapper(g, "a", 2)
        B = state_wrapper(g, "b", 2)
        P = product_initial(A, B)
        for a in range(2):
            for w in cartesian(range(4), repeat=5):
                mid, _ = evaluate_initial(A, a, w)
                b, tail = split_rooted(mid)
                end, _ = evaluate_initial(B, b, tail)
                got, _ = evaluate_initial(P, a, w)
                k = min(len(got), len(end))
                assert got[:k] == end[:k]

    def test_minimize_merges_wrapper(self):
        n = 3
        A = identity_wrapper(n, 2)
        M = minimize_initial(A)
        assert len(M.states) == 2  # the root plus one identity state

    def test_minimize_canonical_names(self):
        M = minimize_initial(identity_wrapper(2, 1))
        assert M.root == "0"
        assert set(M.states) == {"0", "1"}

    def test_initial_equal_across_presentations(self):
        # same map built with a redundant duplicated state
        A = identity_wrapper(2, 1)
        B = InitialTransducer(
            2, 1,
            {0: ((dot(0),), "p")},
            {
                "p": {0: ((0,), "q"), 1: ((1,), "p")},
                "q": {0: ((0,), "p"), 1: ((1,), "q")},
            },
        )
        assert minimize_initial(A) == minimize_initial(B)

    def test_reversing_wrapper_involution(self):
        W = reversing_complement_wrapper(3, 2)
        P = minimize_initial(product_initial(W, W))
        assert minimize_initial(P) == minimize_initial(identity_wrapper(3, 2))

    def test_minimize_strips_incomplete_response(self):
        # root output missing the forced prefix: interior always emits 1 first
        A = InitialTransducer(
            2, 1,
            {0: ((dot(0),), "s")},
            {"s": {0: ((1, 0), "id"), 1: ((1, 1), "id")},
             "id": {0: ((0,), "id"), 1: ((1,), "id")}},
        )
        M = minimize_initial(A)
        out, _ = M.step(M.root, dot(0))
        assert split_rooted(out) == (0, (1,))

    def test_minimize_pulls_forced_dot_upstream(self):
        # both branches of the pending state emit root 1, so the root
        # transition must carry the dot after minimization
        A = InitialTransducer(
            2, 2,
            {0: (EMPTY, "w"), 1: ((dot(0),), "id")},
            {
                "w": {0: ((dot(1), 0), "id"), 1: ((dot(1), 1), "id")},
                "id": {0: ((0,), "id"), 1: ((1,), "id")},
            },
        )
        M = minimize_initial(A)
        out, _ = M.step(M.root, dot(0))
        assert split_rooted(out) == (1, EMPTY)
        assert len(M.states) == 2  # the pending state dissolves into the sink
        assert minimize_initial(A) == minimize_initial(M)

    def test_minimize_idempotent(self):
        from cantortx.machines import machine_g4, realize

        for A in (
            realize(machine_g4(), 3),
            state_wrapper(letter_complement(3), "0", 2),
        ):
            M = minimize_initial(A)
            assert minimize_initial(M) == M

    def test_images_of_delayed_machine(self):
        A = InitialTransducer(
            2, 2,
            {0: (EMPTY, "w"), 1: ((dot(1),), "id")},
            {
                "w": {0: (rooted_word(0, (0,)), "id"), 1: (rooted_word(1, EMPTY), "id")},
                "id": {0: ((0,), "id"), 1: ((1,), "id")},
            },
        )
        img = images(A)
        assert isinstance(img["w"], ClopenSet)
        # branch 0 fills the 0-cone of root 0; branch 1 fills all of root 1
        assert img["w"].cones == ((dot(0), 0), (dot(1),))
        assert img["id"].is_whole()
        root_img = img[A.root]
        assert (dot(1),) in root_img.cones
        assert root_img != whole(A, A.root)  # the 1-cone of root 0 is never hit


# --- the row kernel against the initial-machine routines it replaced --------
#
# Copies of the earlier minimize_initial (with its own forced-output loop and
# partition), the full-recompute images of initial machines and the
# invert_initial loop, written on the public step/symbols_at interface, kept
# as references.

def gcp(words):
    """Greatest common prefix of a nonempty list of words."""
    first, k = words[0], 0
    while k < len(first) and all(len(w) > k and w[k] == first[k] for w in words):
        k += 1
    return first[:k]


def reference_common_prefixes_initial(A, bound=64):
    pool = [q for q in A.states if q != A.root]
    ref = {}
    for q in pool:
        out = []
        s = q
        guard = 0
        while len(out) < bound:
            w, s = A.step(s, 0)
            out.extend(w)
            guard += 1
            if guard > bound * len(pool) + len(pool) + 1:
                raise DegenerateTransducer("letter-0 path stopped producing output")
        ref[q] = tuple(out[:bound])
    g = ref
    for _ in range(2 * bound * len(pool) + len(pool) + 8):
        new = {
            q: gcp([A.output(q, i) + g[A.dest(q, i)] for i in range(A.n)])
            for q in pool
        }
        if new == g:
            break
        g = new
    else:
        raise DepthExceeded("forced outputs did not stabilize")
    for q, w in g.items():
        if len(w) >= bound:
            raise DepthExceeded(f"forced output at state {q!r} reaches the bound {bound}")
    return g


def reference_minimize_initial(A, bound=64):
    c = reference_common_prefixes_initial(A, bound)
    c[A.root] = EMPTY
    stripped = {}
    for q in A.states:
        for sym in A.symbols_at(q):
            w, p = A.step(q, sym)
            stripped[(q, sym)] = subtract_prefix(c[q], w + c[p])
    pool = [q for q in A.states if q != A.root]
    block = {}
    keys = {}
    for q in pool:
        key = tuple(stripped[(q, i)] for i in range(A.n))
        block[q] = keys.setdefault(key, len(keys))
    while True:
        keys = {}
        new = {}
        for q in pool:
            key = (block[q], tuple(block[A.dest(q, i)] for i in range(A.n)))
            new[q] = keys.setdefault(key, len(keys))
        if new == block:
            break
        block = new
    rep = {}
    for q in pool:
        rep.setdefault(block[q], q)
    root_table = {
        a: (stripped[(A.root, dot(a))], ("b", block[A.dest(A.root, dot(a))]))
        for a in range(A.r)
    }
    table = {
        ("b", b): {
            i: (stripped[(q, i)], ("b", block[A.dest(q, i)])) for i in range(A.n)
        }
        for b, q in rep.items()
    }
    M = InitialTransducer(A.n, A.r, root_table, table, root=("b", "root"))
    names = {M.root: "0"}
    order = [M.root]
    k = 0
    while k < len(order):
        q = order[k]
        k += 1
        for sym in M.symbols_at(q):
            p = M.dest(q, sym)
            if p not in names:
                names[p] = str(len(names))
                order.append(p)
    new_root_table = {
        a: (M.output(M.root, dot(a)), names[M.dest(M.root, dot(a))]) for a in range(M.r)
    }
    new_table = {
        names[q]: {i: (M.output(q, i), names[M.dest(q, i)]) for i in range(M.n)}
        for q in order[1:]
    }
    return InitialTransducer(M.n, M.r, new_root_table, new_table, root="0")


class Parts:
    """A clopen subset of the r-rooted space as one ClopenSet per root: the
    form the images of initial and pending states had before they became
    ClopenSets of root-symbol cones."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __eq__(self, other):
        return isinstance(other, Parts) and self.parts == other.parts

    def union(self, other):
        return Parts(a.union(b) for a, b in zip(self.parts, other.parts))

    def as_clopen(self):
        """The ClopenSet of root-symbol cones .a w, root by root."""
        return ClopenSet(self.parts[0].n, tuple(
            (dot(a),) + w for a, p in enumerate(self.parts) for w in p.cones))


def _reference_branch(A, img, q, sym):
    w, p = A.step(q, sym)
    root, tail = split_rooted(w)
    target = img[p]
    if root is None:
        if isinstance(target, Parts):
            return target
        return target.shift(tail)
    parts = [ClopenSet(A.n, ())] * A.r
    parts[root] = target.shift(tail)
    return Parts(parts)


def reference_images_initial(A, max_iter=32):
    """Every state recomputed in every round, one part per root, converted
    to root-symbol cones at the end."""
    img = {
        q: whole_space(A.n) if A.region[q] is DONE else Parts([whole_space(A.n)] * A.r)
        for q in A.states
    }
    for _ in range(max_iter):
        new = {}
        for q in A.states:
            pieces = [_reference_branch(A, img, q, sym) for sym in A.symbols_at(q)]
            acc = pieces[0]
            for piece in pieces[1:]:
                acc = acc.union(piece)
            new[q] = acc
        if new == img:
            return {q: a.as_clopen() if isinstance(a, Parts) else a for q, a in img.items()}
        img = new
    raise NotClopenImage("reference images did not stabilize")


def reference_invert_initial(A):
    A, root_table, table, inv_root = reference_inverse_closure_initial(A)
    return reference_minimize_initial(
        InitialTransducer(A.n, A.r, root_table, table, root=inv_root)
    )


def reference_inverse_closure_initial(A):
    """(minimized A, entry row, rows, entry state) of the inverse of A,
    closed forward with no cap."""
    A = reference_minimize_initial(A)
    assert is_homeomorphism_state(A, A.root)
    inv_root = (EMPTY, A.root)
    root_table = {}
    table = {}
    queue = []
    known = {inv_root}

    def advance(state, sym):
        w, q = state
        target = w + (sym,)
        v = preimage_gcp(A, q, target)
        out, p = evaluate(A, q, v)
        return v, (subtract_prefix(out, target), p)

    for b in range(A.r):
        v, nxt = advance(inv_root, dot(b))
        root_table[b] = (v, nxt)
        if nxt not in known:
            known.add(nxt)
            queue.append(nxt)
    while queue:
        state = queue.pop()
        row = {}
        for i in range(A.n):
            v, nxt = advance(state, i)
            row[i] = (v, nxt)
            if nxt not in known:
                known.add(nxt)
                queue.append(nxt)
        table[state] = row
    return A, root_table, table, inv_root


@lru_cache(maxsize=None)
def realized_cases():
    """(label, A) for realize(g, r) of T:n^k and U:n^k, n = 3..5, k <= 3, at
    every r in 1..n-1, ordered and unordered, wherever g is realizable."""
    cases = []
    for n in (3, 4, 5):
        for make in (machine_T, machine_U):
            g = GroupElement.from_machine(make(n))
            acc = g
            for k in (1, 2, 3):
                for r in range(1, n):
                    for ordered in (True, False):
                        try:
                            A = realize(acc.machine, r, ordered)
                        except RealizeError:
                            continue
                        cases.append((f"{make.__name__}({n})^{k} r={r} {ordered}", A))
                acc = group_product(acc, g)
    return tuple(cases)


def raw_products():
    """Unminimized initial machines: each realized machine composed with the
    reversing complement wrapper, on either side."""
    for label, A in realized_cases():
        W = reversing_complement_wrapper(A.n, A.r)
        yield label + " *W", product_initial(A, W)
        yield label + " W*", product_initial(W, A)


def random_antichain(rng, n, r, splits):
    """A complete antichain over r roots: the roots, then `splits` random
    leaves each replaced by their n children."""
    leaves = [(a, EMPTY) for a in range(r)]
    for _ in range(splits):
        a, w = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend((a, w + (i,)) for i in range(n))
    return leaves


def prefix_exchanges():
    """Seeded random prefix exchanges, n = 2..4 and r = 1..3."""
    rng = random.Random(24)
    for n in (2, 3, 4):
        for r in (1, 2, 3):
            for k in range(4):
                splits = rng.randrange(5)
                domain = random_antichain(rng, n, r, splits)
                range_ = random_antichain(rng, n, r, splits)
                bijection = list(range(len(domain)))
                rng.shuffle(bijection)
                pe = PrefixExchange(n, r, domain, range_, tuple(bijection))
                yield f"exchange n={n} r={r} #{k}", from_prefix_exchange(pe)


def random_initial_machines(count=100):
    """Seeded random initial machines: 1 to 4 states past the output root,
    and a pending state w that outputs a rooted word; each root letter
    enters w with the empty output, or a state past the root with a rooted
    word.  A state past the root permutes the letters, or outputs words 1
    or 2 letters long."""
    rng = random.Random(2024)
    for k in range(count):
        n, r = rng.randint(2, 4), rng.randint(1, 3)
        names = [f"s{j}" for j in range(rng.randint(1, 4))]

        def word(lo, hi):
            return tuple(rng.randrange(n) for _ in range(rng.randint(lo, hi)))

        def rooted():
            return rooted_word(rng.randrange(r), word(0, 2)), rng.choice(names)

        def row():
            outs = rng.sample([(i,) for i in range(n)], n) if rng.random() < 0.7 else [
                word(1, 2) for _ in range(n)]
            return {i: (w, rng.choice(names)) for i, w in enumerate(outs)}

        table = {q: row() for q in names}
        table["w"] = {i: rooted() for i in range(n)}
        entry = {a: (EMPTY, "w") if rng.random() < 0.5 else rooted() for a in range(r)}
        yield f"random #{k}", InitialTransducer(n, r, entry, table)


def kernel_cases():
    """Realized machines, prefix exchanges and random initial machines."""
    yield from realized_cases()[::3]
    yield from prefix_exchanges()
    yield from random_initial_machines()


def stepwise(M, q, w):
    """Run w from q one checked step per symbol."""
    out = ()
    for sym in w:
        piece, q = M.step(q, sym)
        out += piece
    return out, q


class TestRowKernel:
    def test_cases_cover_every_root_count(self):
        got = {(A.n, A.r) for _, A in realized_cases()}
        assert got == {(n, r) for n in (3, 4, 5) for r in range(1, n)}

    def test_minimize_matches_reference(self):
        for label, A in list(realized_cases()) + list(raw_products()):
            got = minimize_initial(A)
            want = reference_minimize_initial(A)
            assert got == want and got.states == want.states, label
            assert serialize(got) == serialize(want), label

    def test_minimize_bound_errors_match_reference(self):
        A = InitialTransducer(
            2, 1,
            {0: ((dot(0),), "s")},
            {"s": {0: ((1, 0), "id"), 1: ((1, 1), "id")},
             "id": {0: ((0,), "id"), 1: ((1,), "id")}},
        )
        assert minimize_initial(A) == reference_minimize_initial(A)

    def test_images_match_reference(self):
        for label, A in list(realized_cases()) + list(raw_products()):
            got = images(A)
            want = reference_images_initial(A)
            assert got == want and list(got) == list(want), label

    def test_images_bound_raises_like_reference(self):
        # images has no round bound: it equals the reference at the
        # first bound the reference settles within, and raises where the
        # reference raises at every bound, on the golden-mean wrappers
        for label, A in list(realized_cases()) + list(raw_products()):
            for k in range(1, 8):
                try:
                    want = reference_images_initial(A, max_iter=k)
                except NotClopenImage:
                    continue
                assert images(A) == want, (label, k)
                break
            else:
                pytest.fail(f"{label}: images need more than 7 rounds")
        for r in (1, 2):
            A = InitialTransducer(
                2, r, {b: ((dot(b),), "a") for b in range(r)},
                {"a": {0: ((0,), "a"), 1: ((0, 1), "a")}},
            )
            for k in range(1, 9):
                with pytest.raises(NotClopenImage):
                    reference_images_initial(A, max_iter=k)
            with pytest.raises(NotClopenImage):
                images(A)

    def test_invert_matches_reference(self):
        for label, A in realized_cases():
            got = invert_initial(A)
            want = reference_invert_initial(A)
            assert got == want and serialize(got) == serialize(want), label
        for label, A in list(raw_products())[::7]:
            assert invert_initial(A) == reference_invert_initial(A), label

    def test_invert_cap_matches_reference(self):
        # the closure has no cap: every owed word w of a state (w, q) of the
        # reference closure is shorter than the greatest |w_i| + depth
        # im(p_i) over the edges (a rooted image's root counts as a
        # letter), and invert_initial matches the closure's minimization
        def depth(img):
            return max(map(len, img.cones))

        checked = 0
        cases = list(realized_cases()) + list(raw_products())[::7]
        for i, (label, A) in enumerate(cases):
            M, _, table, _ = reference_inverse_closure_initial(A)
            img = images(M)
            bound = max(len(w) + depth(img[p]) for q in M.states for w, p in M._rows[q])
            for w, q in table:
                assert len(w) < bound, (label, w, q)
                checked += 1
            if i % 5 == 0:
                assert invert_initial(A) == reference_invert_initial(A), label
        assert checked > 600, checked

    def test_evaluate_matches_stepwise_reference(self):
        # from the initial state with a root symbol first, and from every
        # other state on letters only
        rng = random.Random(7)
        for label, A in kernel_cases():
            for _ in range(20):
                w = tuple(rng.randrange(A.n) for _ in range(rng.randrange(7)))
                for a in range(A.r):
                    rooted = (dot(a),) + w
                    got = evaluate(A, A.root, rooted)
                    assert got == evaluate_initial(A, a, w) == stepwise(A, A.root, rooted), label
                for q in A.states[1:]:
                    assert evaluate(A, q, w) == stepwise(A, q, w), label

    def test_homeomorphism_at_the_root_is_injectivity_everywhere(self):
        # every state is reachable from the initial state, so the initial
        # state is injective exactly when no state is non-injective
        seen = set()
        for label, A in kernel_cases():
            try:
                want = not non_injective_states(A) and images(A)[A.root] == whole(A, A.root)
            except NotClopenImage:
                with pytest.raises(NotClopenImage):
                    is_homeomorphism_state(A, A.root)
                seen.add(None)
                continue
            assert is_homeomorphism_state(A, A.root) == want, label
            seen.add(want)
        assert seen == {True, False, None}

    def test_core_is_the_restricted_interior(self):
        # the non-initial rows with their root markers stripped, as a plain
        # machine, restricted to its forced states
        seen = set()
        for label, A in kernel_cases():
            interior = Transducer(A.n, {
                q: {i: (split_rooted(w)[1], p) for i, (w, p) in enumerate(A.row(q))}
                for q in A.states[1:]
            })
            try:
                want = restrict(interior, sorted(core_states(interior), key=str))
            except NotSynchronizing:
                with pytest.raises(NotSynchronizing):
                    core(A)
                seen.add(False)
                continue
            got = core(A)
            assert got == want and got.states == want.states, label
            seen.add(True)
        assert seen == {True, False}

    def test_forced_outputs_match_reference(self):
        # the non-initial states of the realized machines and of their raw
        # products with the complement wrapper
        for label, A in list(realized_cases()) + list(raw_products()):
            got = common_prefixes(A, states=A.states[1:])
            assert got == reference_common_prefixes_initial(A), label
            assert list(got) == list(A.states[1:]), label


GOLDEN = Path(__file__).resolve().parent / "golden"


def digest(M):
    return hashlib.sha256(serialize(M).encode()).hexdigest()


class TestGoldenRealizations:
    """sha256 of the serialized realizations and their inverses, as
    recorded in tests/golden/realize_digests.json: a change to how realize
    and invert_initial do their work must not change a byte of what they
    return."""

    def cases(self):
        yield from realized_cases()
        for r in (1, 2, 3):
            for ordered in (True, False):
                yield (f"letter_complement(4) r={r} {ordered}",
                       realize(letter_complement(4), r, ordered))

    def test_digests(self):
        want = json.loads((GOLDEN / "realize_digests.json").read_text())
        got = {label: [digest(A), digest(invert_initial(A))] for label, A in self.cases()}
        assert got.keys() == want.keys()
        for label, pair in got.items():
            assert pair == want[label], label


class TestRows:
    def machine(self):
        return realize(machine_T(3), 2)

    def test_row_is_step_over_symbols(self):
        for _, A in realized_cases()[:10]:
            for q in A.states:
                assert A.row(q) == tuple(A.step(q, s) for s in A.symbols_at(q))

    def test_entry_row_indexed_by_root_letter(self):
        A = InitialTransducer(
            2, 2,
            {1: ((dot(1),), "id"), 0: (EMPTY, "w")},
            {
                "w": {1: (rooted_word(1, EMPTY), "id"), 0: (rooted_word(0, (0,)), "id")},
                "id": {0: ((0,), "id"), 1: ((1,), "id")},
            },
        )
        assert A.row(A.root) == ((EMPTY, "w"), ((dot(1),), "id"))
        assert A.row("w") == ((rooted_word(0, (0,)), "id"), (rooted_word(1, EMPTY), "id"))
        assert A.states == (A.root, "w", "id")

    def test_step_rejects(self):
        A = self.machine()
        q = A.states[1]
        for bad in [("zz", 0), ("zz", dot(0)), (q, dot(0)), (A.root, 0),
                    (A.root, dot(2)), (A.root, dot(-1)), (q, 3), (q, -1),
                    (q, 1.0), (A.root, dot(1.0)), (A.root, dot("0"))]:
            with pytest.raises(InvalidInput):
                A.step(*bad)
        with pytest.raises(InvalidInput):
            A.row("zz")

    def test_hash_agrees_with_equality(self):
        rows = {
            "p": {0: ((0,), "q"), 1: ((1,), "p")},
            "q": {0: ((0,), "p"), 1: ((1,), "q")},
        }
        A = InitialTransducer(2, 1, {0: ((dot(0),), "p")}, rows)
        B = InitialTransducer(
            2, 1, {0: ((dot(0),), "p")},
            {q: dict(reversed(list(row.items()))) for q, row in reversed(list(rows.items()))},
        )
        assert A == B and hash(A) == hash(B)
        C = InitialTransducer(2, 1, {0: ((dot(0),), "q")}, rows)
        assert A != C
        assert len({hash(M) for _, M in realized_cases()}) == len(set(
            serialize(M) for _, M in realized_cases()
        ))


def serialize_renamed(M):
    """serialize(M) with the states of M named by their position, as the
    builders name some states by tuples, which the text format cannot
    hold."""
    name = {q: f"s{k}" for k, q in enumerate(M.states)}

    def row(q):
        return {i: (w, name[p]) for i, (w, p) in enumerate(M.row(q))}

    return serialize(InitialTransducer(
        M.n, M.r, row(M.root), {name[q]: row(q) for q in M.states[1:]}, root=name[M.root]
    ))


class TestLibraryRows:
    """The initial machines that the library builds from checked machines
    skip the constructor's cell checks (InitialTransducer._from_rows): each
    equals the checking constructor's machine on the same rows.  The
    realization check reads the core of the minimal machine as it is."""

    # state_wrapper builds the tree machine whose leaves are the roots
    BUILDERS = {"product_initial", "_minimize", "_invert_minimal", "_tree_machine"}

    def test_every_builder_equals_the_checking_constructor(self, monkeypatch):
        built = []
        original = InitialTransducer._from_rows.__func__

        def recording(cls, n, r, root, rows):
            M = original(cls, n, r, root, rows)
            built.append((sys._getframe(1).f_code.co_name, n, r, root, dict(rows), M))
            return M

        monkeypatch.setattr(InitialTransducer, "_from_rows", classmethod(recording))
        cases = realized_cases.__wrapped__()  # built afresh, not the cached ones
        for _, A in cases:
            W = reversing_complement_wrapper(A.n, A.r)
            product_initial(A, W)
            product_initial(W, A)
        list(prefix_exchanges())
        monkeypatch.undo()
        seen = set()
        for builder, n, r, root, rows, M in built:
            if builder not in self.BUILDERS:
                continue
            seen.add(builder)
            want = InitialTransducer(
                n, r, dict(enumerate(rows[root])),
                {q: dict(enumerate(row)) for q, row in rows.items() if q != root},
                root=root,
            )
            assert M == want and hash(M) == hash(want), builder
            assert (M.states, M.region) == (want.states, want.region), builder
            assert serialize_renamed(M) == serialize_renamed(want), builder
        assert seen == self.BUILDERS
        assert len(built) > 500, len(built)

    def test_minimal_core_read_as_it_is(self):
        checked = 0
        for _, A in TestGoldenRealizations().cases():
            assert "minimal" in A._memo
            got, want = canonical_core(A), canonical_core(core(A))
            assert got == want and serialize(got) == serialize(want)
            checked += 1
        assert checked >= 100, checked
