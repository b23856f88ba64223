import random
from functools import reduce
from itertools import combinations, product as cartesian

import pytest

from cantortx.words import (
    EMPTY,
    ClopenSet,
    EvPeriodicWord,
    canonicalize_clopen,
    whole_space,
)
from cantortx.transducer import (
    DegenerateTransducer,
    Transducer,
    check_productive,
    evaluate,
)
from cantortx.initial import PENDING, InitialTransducer, dot, split_rooted
from cantortx.images import (
    NotClopenImage,
    Orientation,
    _branches_disjoint,
    _check_clopen,
    analyze,
    images,
    is_homeomorphism_state,
    is_injective_state,
    non_injective_states,
    orientation,
    whole,
)
from cantortx.signature import validation_failure
from cantortx.synchronize import minimal_sync_level
from cantortx.textio import parse
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    swap_transducer,
    cycle_transducer,
    realize,
    state_wrapper,
)
from cantortx.group import GroupElement, group_product, invert_element
from cantortx.verify import _close_pool, _generator_pool


def constant_machine():
    # both letters output 0 forever: image is a single point, not clopen
    return Transducer(2, {"q": {0: ((0,), "q"), 1: ((0,), "q")}})


def golden_mean_machine():
    # the outputs avoid 1,1: the image is the golden-mean shift, closed but
    # not open, and the image rounds grow exponentially on it
    return Transducer(2, {"a": {0: ((0,), "a"), 1: ((0, 1), "a")}})


def folding_machine():
    # both letters fold into the 0 half-cone, then copy: clopen image,
    # not injective
    return Transducer(
        2,
        {
            "q": {0: ((0,), "id"), 1: ((0,), "id")},
            "id": {0: ((0,), "id"), 1: ((1,), "id")},
        },
    )


class TestImage:
    def test_g_images(self):
        g = machine_g4()
        assert images(g)["a"].cones == ((0,), (1,))
        assert images(g)["b"].cones == ((2,), (3,))

    def test_identity_whole(self):
        assert images(identity_transducer(5))["0"].is_whole()

    def test_block_sum_images(self):
        M = oplus(2, swap_transducer(), 4)
        assert images(M)[("0", 1)].cones == ((2,), (3,))
        M6 = oplus(3, identity_transducer(3), 6)
        assert images(M6)[("0", 0)].cones == ((0,), (1,), (2,))

    def test_fixpoint_equation_holds_exactly(self):
        for M in (machine_g4(), machine_T(3), machine_U(4), oplus(2, swap_transducer(), 4)):
            img = images(M)
            for q in M.states:
                rhs = reduce(
                    ClopenSet.union,
                    [img[M.dest(q, i)].shift(M.output(q, i)) for i in range(M.n)],
                )
                assert img[q] == rhs

    def test_sampling_soundness(self):
        rng = random.Random(3)
        for M in (machine_g4(), machine_T(3), machine_U(3)):
            img = images(M)
            for q in M.states:
                for _ in range(200):
                    delta = tuple(rng.randrange(M.n) for _ in range(12))
                    out, _ = evaluate(M, q, delta)
                    prefix = out[:12]
                    assert any(
                        prefix[: len(c)] == c[: len(prefix)] for c in img[q].cones
                    )


def reaches_overlap_machine():
    # synchronizing core with whole images; at "b" the branch images (the
    # whole space and the cone 1) overlap, and "a" reaches "b" on letter 1
    return Transducer(
        2,
        {
            "a": {0: ((0,), "a"), 1: ((1,), "b")},
            "b": {0: ((), "a"), 1: ((1,), "b")},
        },
    )


class TestStatePredicates:
    def test_m_values(self):
        g = machine_g4()
        assert len(images(g)["a"].cones) == 2 and len(images(g)["b"].cones) == 2
        assert len(images(identity_transducer(2))["0"].cones) == 1
        assert len(images(oplus(3, identity_transducer(3), 6))[("0", 0)].cones) == 3

    def test_injectivity(self):
        assert is_injective_state(machine_g4(), "a")
        assert not is_injective_state(folding_machine(), "q")
        assert is_injective_state(machine_T(3), "b")

    def test_one_pass_matches_per_state_checks(self):
        machines = [machine_g4(), folding_machine(), reaches_overlap_machine(),
                    oplus(2, swap_transducer(), 4), oplus(3, cycle_transducer(3), 6)]
        machines += [make(n) for make in (machine_T, machine_U) for n in (3, 4, 5)]
        for M in machines:
            expect = [q for q in M.states if not is_injective_state(M, q)]
            assert non_injective_states(M) == expect
        assert non_injective_states(folding_machine()) == ["q"]

    def test_failure_names_the_first_state_reaching_an_overlap(self):
        # "a" has disjoint branches itself but reaches "b", whose do overlap
        M = reaches_overlap_machine()
        assert non_injective_states(M) == ["a", "b"]
        assert validation_failure(M) == "state 'a' is not injective"
        assert orientation(M) is Orientation.NEITHER

    def test_non_clopen_image_is_an_error(self):
        from cantortx.images import NotClopenImage

        with pytest.raises(NotClopenImage):
            images(constant_machine())["q"]

    def test_homeomorphism_states(self):
        T = machine_T(3)
        assert is_homeomorphism_state(T, "a")
        assert is_homeomorphism_state(T, "b")
        assert not is_homeomorphism_state(T, "c")
        assert not is_homeomorphism_state(machine_g4(), "a")
        assert is_homeomorphism_state(identity_transducer(4), "0")
        assert is_homeomorphism_state(machine_U(4), "p")

    def test_m_mod_constant_across_core_states(self):
        for M in (machine_g4(), machine_T(3), machine_U(4), oplus(2, swap_transducer(), 4)):
            img = images(M)
            n = M.n
            residues = {(len(img[q].cones) - 1) % (n - 1) + 1 for q in M.states}
            assert len(residues) == 1


class TestOrientation:
    def test_examples(self):
        assert orientation(machine_g4()) is Orientation.PRESERVING
        assert orientation(letter_complement(4)) is Orientation.REVERSING
        assert orientation(identity_transducer(3)) is Orientation.PRESERVING
        assert orientation(constant_machine()) is Orientation.NEITHER
        assert orientation(oplus(2, swap_transducer(), 4)) is Orientation.NEITHER

    def test_brute_force_soundness(self):
        # preserving: for incomparable depth-6 cones d1 < d2 the output words
        # must not invert; mirrored for reversing
        for M, kind in ((machine_g4(), "P"), (machine_T(3), "P"),
                        (letter_complement(3), "R")):
            n = M.n
            q = M.states[0]
            cones = list(cartesian(range(n), repeat=6))
            rng = random.Random(5)
            for _ in range(300):
                d1, d2 = sorted(rng.sample(cones, 2))
                o1, _ = evaluate(M, q, d1)
                o2, _ = evaluate(M, q, d2)
                k = min(len(o1), len(o2))
                a, b = o1[:k], o2[:k]
                if a == b:
                    continue  # comparable outputs are inconclusive
                if kind == "P":
                    assert a < b
                else:
                    assert a > b

    def test_analyze_bundle(self):
        reports, orient = analyze(machine_g4())
        assert orient is Orientation.PRESERVING
        assert reports["a"].m == 2 and reports["a"].injective
        assert not reports["a"].homeomorphism


class TestInitialImages:
    def test_wrapper_images(self):
        g = machine_g4()
        A = state_wrapper(g, "a", 2)
        img = images(A)
        assert img[A.root] != whole(A, A.root)  # im(a) misses half of each root copy
        B = state_wrapper(machine_T(3), "a", 2)
        assert images(B)[B.root] == whole(B, B.root)

    def test_rooted_image_repr(self):
        # root symbols print as .a, as the text format writes them
        A = state_wrapper(machine_g4(), "a", 2)
        assert repr(images(A)[A.root]) == "{.0,0, .0,1, .1,0, .1,1}"
        assert repr(whole(A, A.root)) == "{.0, .1}"
        assert repr(images(A)["a"]) == "{0, 1}"
        assert repr(whole(machine_g4(), "a")) == "{e}"

    def test_homeomorphism_initial(self):
        for T, q, r, want in ((machine_T(3), "a", 1, True), (machine_g4(), "a", 1, False),
                              (identity_transducer(2), "0", 3, True)):
            A = state_wrapper(T, q, r)
            assert is_homeomorphism_state(A, A.root) == want


# --- the round-based image fixpoint -----------------------------------------


def reference_canonicalize(n, cones):
    """The fixpoint canonicalization that the sorted stack pass replaced
    (as in test_words): drop every word with a proper prefix present, merge
    complete sibling families into their parent, and repeat until nothing
    changes."""
    s = {tuple(c) for c in cones}
    changed = True
    while changed:
        s = {w for w in s if not any(w[:k] in s for k in range(len(w)))}
        changed = False
        parents = {}
        for w in s:
            if w:
                parents.setdefault(w[:-1], set()).add(w[-1])
        for parent, kids in parents.items():
            if len(kids) == n:
                s.difference_update(parent + (i,) for i in range(n))
                s.add(parent)
                changed = True
    return ClopenSet(n, tuple(sorted(s)))


def reference_images(T, max_iter=32):
    """The image fixpoint recomputing every state in every round, with the
    fixpoint canonicalization that the sorted stack pass replaced."""
    img = {q: whole_space(T.n) for q in T.states}
    for _ in range(max_iter):
        new = {
            q: reference_canonicalize(
                T.n, [w + c for w, p in T.row(q) for c in img[p].cones]
            )
            for q in T.states
        }
        if new == img:
            return img
        img = new
    raise NotClopenImage("reference images did not stabilize")


def power_machines(make, n, top):
    """Canonical machines of make(n)^1..make(n)^top."""
    g = GroupElement.from_machine(make(n))
    acc = g
    for _ in range(top):
        yield acc.machine
        acc = group_product(acc, g)


def fixpoint_cases():
    yield machine_g4()
    yield oplus(2, swap_transducer(), 4)
    yield oplus(2, swap_transducer(), 6)
    yield oplus(3, cycle_transducer(3), 6)
    yield folding_machine()
    yield reaches_overlap_machine()
    for n, top in ((3, 12), (4, 10), (5, 8)):
        for make in (machine_T, machine_U):
            yield from power_machines(make, n, top)
    rng = random.Random(17)
    gens = [GroupElement.from_machine(make(4)) for make in (machine_T, machine_U)]
    gens += [invert_element(g) for g in gens]
    for _ in range(6):
        acc = rng.choice(gens)
        for _ in range(rng.randrange(1, 5)):
            acc = group_product(acc, rng.choice(gens))
        yield acc.machine


def reference_branches_disjoint(M, img, p):
    """The pairwise branch test that one sorted pass replaced: every two
    branch images, compared cone by cone, and on an initial machine root by
    root, each branch image split into one ClopenSet per root."""
    if isinstance(M, Transducer):
        pieces = [img[d].shift(w) for w, d in M.row(p)]
    else:
        pieces = [_branch_parts(M, img, w, d) for w, d in M.row(p)]
    return all(_pairwise_disjoint(a, b) for a, b in combinations(pieces, 2))


def _branch_parts(A, img, w, p):
    """The image of the branch of the initial machine A that outputs w and
    moves to p: a ClopenSet past the output root, else a tuple of one
    ClopenSet per root, read off the root-symbol cones of img."""
    root, tail = split_rooted(w)
    if A.region[p] is PENDING:  # a pending output, so the tail is empty
        return tuple(
            ClopenSet(A.n, tuple(c[1:] for c in img[p].cones if c[0] == dot(a)))
            for a in range(A.r)
        )
    if root is None:
        return img[p].shift(tail)
    parts = [ClopenSet(A.n, ())] * A.r
    parts[root] = img[p].shift(tail)
    return tuple(parts)


def _pairwise_disjoint(a, b):
    """No cone of a and cone of b are nested."""
    if isinstance(a, tuple):
        return all(_pairwise_disjoint(x, y) for x, y in zip(a, b))
    return not any(
        v[: len(u)] == u or u[: len(v)] == v for u in a.cones for v in b.cones
    )


def verify_pool_machines():
    """The elements of both verify pools and their inverses."""
    for n in (3, 4):
        layers = _close_pool(_generator_pool(n), 3)
        built = layers[1] + layers[2] + layers[3]
        for g in built + [invert_element(g) for g in built]:
            yield g.machine


class TestSortedKernelImages:
    """Images and branch disjointness against the fixpoint and pairwise
    routines that the sorted-antichain kernel replaced."""

    def test_powers_and_verify_pools_match_the_references(self):
        machines = list(power_machines(machine_T, 3, 16)) + list(verify_pool_machines())
        machines += [folding_machine(), reaches_overlap_machine()]
        for M in machines:
            img = images(M)
            assert img == reference_images(M)
            for p in M.states:
                assert _branches_disjoint(M, img, p) == reference_branches_disjoint(M, img, p)

    def test_initial_machines_match_the_references(self):
        machines = [realize(make(n), r) for make, n in ((machine_T, 3), (machine_U, 4))
                    for r in range(1, n)]
        machines += [state_wrapper(M, q, r) for M in (machine_g4(), machine_T(3))
                     for q in M.states for r in (1, 2)]
        # both roots go to root 1, so the branches overlap at root 1 only
        T = machine_T(3)
        table = {p: dict(enumerate(T.row(p))) for p in T.states}
        merging = InitialTransducer(3, 2, {a: ((dot(1),), "a") for a in (0, 1)}, table)
        assert not _branches_disjoint(merging, images(merging), merging.root)
        machines.append(merging)
        for A in machines:
            img = images(A)
            for p in A.states:
                assert _branches_disjoint(A, img, p) == reference_branches_disjoint(A, img, p)


class TestImageFixpoint:
    def test_matches_full_recompute(self):
        for M in fixpoint_cases():
            got = images(M)
            want = reference_images(M)
            assert list(got) == list(M.states)
            assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("make,n", [(machine_T, 3), (machine_U, 3), (machine_T, 5)])
    def test_power_k_needs_k_plus_one_rounds(self, make, n):
        for k, M in enumerate(power_machines(make, n, 12), start=1):
            with pytest.raises(NotClopenImage):
                reference_images(M, max_iter=k)
            assert images(M) == reference_images(M, max_iter=k + 1)

    def test_rounds_exceed_states_and_sync_level(self):
        # a valid 4-state core at sync level 3 whose images need 6 rounds:
        # neither rounds <= |Q| nor rounds <= sync level + 1 holds (it is
        # the inverse of a product of three n = 4 generators in the
        # rsig-homomorphism pool of the acceptance tests)
        M = parse(
            "TRANSDUCER n=4 r=0 states=1,2,3,0 initial=-\n"
            "1 0 -> 1 : 1\n1 1 -> 0 : 1\n1 2 -> 0 : 2\n1 3 -> 1 : 2\n"
            "2 0 -> 1 : 0,1,2\n2 1 -> 0 : 0,1\n2 2 -> 0 : 0,2\n2 3 -> 3 : e\n"
            "3 0 -> 1 : 0,2\n3 1 -> 0 : 0\n3 2 -> 0 : 3\n3 3 -> 1 : 3\n"
            "0 0 -> 1 : 0,1,1\n0 1 -> 0 : 0,1,1\n0 2 -> 0 : 0,1,2\n0 3 -> 2 : e\n"
        )
        assert validation_failure(M) is None
        assert len(M.states) == 4 and minimal_sync_level(M) == 3
        with pytest.raises(NotClopenImage):
            reference_images(M, max_iter=5)
        assert images(M) == reference_images(M, max_iter=6)

    def test_non_clopen_fails_like_full_recompute(self):
        with pytest.raises(NotClopenImage):
            images(constant_machine())
        with pytest.raises(NotClopenImage):
            reference_images(constant_machine(), max_iter=32)


# --- the exact clopen test ----------------------------------------------------


def reference_not_clopen(T):
    """Is some state image of the plain machine T not clopen?  The residual
    graph built on frozensets of (destination, pending output) pairs: is
    there a cycle of residuals, read from the states, that each reach the
    empty residual?"""

    def expand(q):
        out = set()
        for w, p in T.row(q):
            out |= {(p, w)} if w else expand(p)
        return out

    def read(R, a):
        out = set()
        for p, v in R:
            if v[0] == a:
                out |= {(p, v[1:])} if len(v) > 1 else expand(p)
        return frozenset(out)

    graph = {}
    todo = [frozenset(expand(q)) for q in T.states]
    while todo:
        R = todo.pop()
        if R not in graph:
            graph[R] = {read(R, a) for a in range(T.n)}
            todo.extend(graph[R])
    reach = {frozenset()} & set(graph)
    while True:
        new = {R for R in graph if graph[R] & reach} - reach
        if not new:
            break
        reach |= new
    undecided = reach - {frozenset()}
    for R in undecided:
        seen, todo = set(), [S for S in graph[R] if S in undecided]
        while todo:
            S = todo.pop()
            if S == R:
                return True
            if S not in seen:
                seen.add(S)
                todo.extend(X for X in graph[S] if X in undecided)
    return False


def random_productive_machines(count, seed):
    """`count` seeded random productive machines with n = 2 or 3, one to
    four states and outputs of zero to two letters."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n, k = rng.choice((2, 3)), rng.randint(1, 4)
        table = {
            q: {i: (tuple(rng.randrange(n) for _ in range(rng.randint(0, 2))), rng.randrange(k))
                for i in range(n)}
            for q in range(k)
        }
        T = Transducer(n, table)
        try:
            check_productive(T)
        except DegenerateTransducer:
            continue
        made += 1
        yield T


class TestExactClopen:
    def test_golden_mean_is_not_clopen(self):
        for f in (images, non_injective_states, _check_clopen):
            with pytest.raises(NotClopenImage, match="^some state image is not clopen$"):
                f(golden_mean_machine())
        assert validation_failure(golden_mean_machine()) == "some state image is not clopen"
        assert orientation(golden_mean_machine()) is Orientation.NEITHER

    def test_initial_machine_over_a_non_clopen_state(self):
        for r in (1, 2):
            A = state_wrapper(golden_mean_machine(), "a", r)
            with pytest.raises(NotClopenImage):
                images(A)
            with pytest.raises(NotClopenImage):
                _check_clopen(A)

    def test_clopen_pools_pass(self):
        machines = list(power_machines(machine_T, 3, 16)) + list(verify_pool_machines())
        machines += [folding_machine(), reaches_overlap_machine()]
        machines += [realize(make(n), r) for make, n in ((machine_T, 3), (machine_U, 4))
                     for r in range(1, n)]
        for M in machines:
            assert _check_clopen(M) is None
        assert reference_not_clopen(constant_machine())
        assert not any(map(reference_not_clopen, machines[:16]))

    def test_random_machines_agree_with_the_references(self):
        clopen = not_clopen = 0
        for T in random_productive_machines(2000, seed=5):
            try:
                img = images(T)
            except NotClopenImage:
                assert reference_not_clopen(T)
                not_clopen += 1
                continue
            assert not reference_not_clopen(T)
            clopen += 1
            try:
                want = reference_images(T)
            except NotClopenImage:
                continue
            assert img == want
        assert (clopen, not_clopen) == (133, 1867)

    def test_squaring_chains_stay_valid(self):
        # the 32nd and 64th powers need 33 and 65 image rounds
        for make, n in ((machine_T, 3), (machine_U, 3), (machine_T, 5)):
            g = GroupElement.from_machine(make(n))
            for j in range(1, 7):
                g = group_product(g, g)
                if j == 5:
                    assert images(g.machine) == reference_images(g.machine, max_iter=40)
            assert validation_failure(g.machine) is None
