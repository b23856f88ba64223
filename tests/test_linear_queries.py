"""The read-only query kernels against the routines they replaced, kept here
as references: the least rotation as a min over all rotations, the loop
state as a count over all states, per-word m values by a depth-first walk of
every word, and the orientation by pumping each periodic input from every
state."""

import random

import pytest

from cantortx.words import EvPeriodicWord, GREATER, InvalidInput, RotationClass, lex_compare_evp, rotation_class_of
from cantortx.transducer import Transducer, _letter_outputs, evaluate, evaluate_periodic
from cantortx.images import NotClopenImage, Orientation, non_injective_states, orientation
from cantortx.signature import BLOCK_VALUES, PerWordM, signature_report
from cantortx.synchronize import is_synchronizing
from cantortx.machines import (
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    swap_transducer,
)
from cantortx.group import (
    CoreInvariantError,
    GroupElement,
    group_product,
    invert_element,
    loop_state,
    orbit_lengths,
    rotation_action,
)
from cantortx.verify import _close_pool, _generator_pool


# --- the references ---------------------------------------------------------


def reference_rotation_class(w):
    w = tuple(w)
    return RotationClass(min(w[i:] + w[:i] for i in range(len(w))))


def reference_loop_state(T, w):
    hits = [q for q in T.states if evaluate(T, q, w)[1] == q]
    if len(hits) != 1:
        raise CoreInvariantError(f"expected exactly one loop state for {w}, found {len(hits)}")
    return hits[0]


def reference_orbit(g, c, steps):
    """The classes along the orbit of c, read with the references."""
    out = [c]
    for _ in range(steps):
        w = c.rep
        q = reference_loop_state(g.machine, w)
        c = reference_rotation_class(evaluate(g.machine, q, w)[0])
        out.append(c)
    return out


def reference_per_word(per):
    """Every value of a PerWordM by a depth-first walk of all n^level words."""
    rows, m, k = per._rows, per._m, per.level
    stack = [iter((per._start,))]
    while stack:
        q = next(stack[-1], None)
        if q is None:
            stack.pop()
        elif len(stack) > k:
            yield m[q]
        else:
            stack.append(iter(rows[q]))


def reference_orientation(T):
    """Pump x.(n-1)^omega and y.0^omega from every state."""
    try:
        if non_injective_states(T):
            return Orientation.NEITHER
    except NotClopenImage:
        return Orientation.NEITHER
    n = T.n
    preserving = reversing = True
    for q in T.states:
        hi = [evaluate_periodic(T, q, EvPeriodicWord((x,), (n - 1,))) for x in range(n)]
        lo = [evaluate_periodic(T, q, EvPeriodicWord((x,), (0,))) for x in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                if lex_compare_evp(hi[x], lo[y]) == GREATER:
                    preserving = False
                if lex_compare_evp(lo[y], hi[x]) == GREATER:
                    reversing = False
        if not (preserving or reversing):
            return Orientation.NEITHER
    if preserving:
        return Orientation.PRESERVING
    if reversing:
        return Orientation.REVERSING
    return Orientation.NEITHER


# --- the pools --------------------------------------------------------------


def verify_pool():
    """The verify suite's pools at n = 3 and 4: products of up to three
    generators."""
    out = []
    for n in (3, 4):
        layers = _close_pool(_generator_pool(n), 3)
        out += layers[1] + layers[2] + layers[3]
    return out


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


def seeded_words():
    """Products of 4 to 8 seeded factors from T, U and pi_R (and at n = 4
    the block sum of the swap), with inverses, at n = 3, 4, 5."""
    rng = random.Random(26)
    out = []
    for n in (3, 4, 5):
        base = [machine_T(n), machine_U(n), letter_complement(n)]
        if n == 4:
            base.append(oplus(2, swap_transducer(), 4))
        gens = [GroupElement.from_machine(M) for M in base]
        gens += [invert_element(g) for g in gens]
        for _ in range(6):
            acc = rng.choice(gens)
            for _ in range(rng.randint(3, 7)):
                acc = group_product(acc, rng.choice(gens))
            out.append(acc)
    return out


@pytest.fixture(scope="module")
def pools():
    return {"verify": verify_pool(), "powers": power_pool(), "words": seeded_words()}


# --- least rotation ---------------------------------------------------------


class TestLeastRotation:
    def test_small_cases(self):
        assert rotation_class_of((2,)).rep == (2,)
        assert rotation_class_of((0, 1, 0, 1)).rep == (0, 1, 0, 1)
        assert rotation_class_of((1, 0, 1, 0)).rep == (0, 1, 0, 1)
        assert rotation_class_of((1, 1, 1)).rep == (1, 1, 1)
        assert rotation_class_of((2, 0, 1, 0, 0)).rep == (0, 0, 2, 0, 1)

    def test_matches_min_over_rotations(self):
        rng = random.Random(2026)
        words = [(a,) for a in range(5)]
        for _ in range(2000):
            n = rng.randint(2, 5)
            w = tuple(rng.randrange(n) for _ in range(rng.randint(1, 14)))
            if rng.random() < 0.3:  # a power, so that rotations tie
                w = w * rng.randint(2, 4)
            words.append(w)
        words += [tuple(rng.choice((0, 0, 0, 1)) for _ in range(200)) for _ in range(20)]
        for w in words:
            assert rotation_class_of(w) == reference_rotation_class(w), w
        assert len(words) >= 2000


# --- loop states and orbits -------------------------------------------------


def orbit_classes(g, c, steps):
    out = [c]
    for _ in range(steps):
        c = rotation_action(g, c)
        out.append(c)
    return out


class TestOrbits:
    def check(self, elements, steps):
        for g in elements:
            n = g.n
            for rep in ((0,), (n - 1,), (1, 2), (0, 1, 2), (2, 1, 1, 0)):
                c = rotation_class_of(rep)
                want = reference_orbit(g, c, steps)
                assert orbit_classes(g, c, steps) == want
                assert orbit_lengths(g, c, steps) == [len(x) for x in want]

    def test_verify_pools(self, pools):
        self.check(pools["verify"], 6)

    def test_seeded_words(self, pools):
        self.check(pools["words"], 6)

    def test_powers(self, pools):
        self.check(pools["powers"][::3], 4)

    def test_letters_are_checked_once_per_step(self, record_calls):
        # orbit_lengths checks the start class once and loop_state checks the
        # letters of w at each step; the loop output is read from the rows
        # unchecked after it
        calls = record_calls(("check_letters",))
        g = GroupElement.from_machine(machine_T(3))
        calls.clear()
        assert orbit_lengths(g, rotation_class_of((1, 2)), 5) == [2, 3, 4, 5, 6, 7]
        assert len(calls["check_letters"]) == 6

    def test_letter_out_of_range(self):
        # the walk on a valid element and the count over all states of a
        # machine that does not synchronize name the same letter
        swap = Transducer(3, {"a": {i: ((i,), "b") for i in range(3)},
                              "b": {i: ((i,), "a") for i in range(3)}})
        assert not is_synchronizing(swap)
        for g in (GroupElement.from_machine(machine_T(3)), GroupElement(swap)):
            with pytest.raises(InvalidInput, match=f"letter 7 out of range for alphabet of size {g.n}"):
                rotation_action(g, RotationClass((7,)))

    def test_synchronizing_tables_without_a_verdict(self):
        # random synchronizing machines with no memo: is_synchronizing
        # admits the walk, and its state is the counted one
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            n, size = rng.randint(2, 4), rng.randint(1, 6)
            T = Transducer(n, {q: {i: ((rng.randrange(n),), rng.randrange(size)) for i in range(n)}
                               for q in range(size)})
            if not is_synchronizing(T):
                continue
            for _ in range(5):
                w = tuple(rng.randrange(n) for _ in range(rng.randint(1, 6)))
                assert loop_state(T, w) == reference_loop_state(T, w)
            checked += 1


# --- per-word m values ------------------------------------------------------


def block_depth(n, level):
    d = 0
    while d < level and n ** (d + 1) <= BLOCK_VALUES:
        d += 1
    return d


class TestPerWordBlocks:
    def test_random_tables(self):
        rng = random.Random(11)
        for n in (2, 3, 4, 5):
            top = block_depth(n, 99) + 2
            for level in range(top + 1):
                size = rng.randint(1, 5)
                rows = {q: tuple(rng.randrange(size) for _ in range(n)) for q in range(size)}
                m = {q: rng.randint(1, 9) for q in range(size)}
                per = PerWordM(n, level, rows, rng.randrange(size), m)
                want = list(reference_per_word(per))
                assert len(want) == len(per) == n**level
                assert list(per) == want
                assert list(per) == want  # again, from the kept blocks
                assert [per[i] for i in range(len(per))] == want
                assert per == want and per == tuple(want)
                if want:
                    assert per != want[:-1] + [want[-1] + 1]

    def test_signatures(self, pools):
        for g in pools["verify"] + pools["powers"] + pools["words"]:
            rep = signature_report(g.machine)
            per = rep.per_word_m
            if len(per) > 10**4:
                continue
            want = list(reference_per_word(per))
            assert list(per) == want
            assert sum(per) == rep.sig == sum(w * m for w, m in rep.forced.values())


# --- orientation ------------------------------------------------------------


class TestOrientation:
    def check(self, machines):
        for T in machines:
            assert orientation(T) is reference_orientation(T)
            if non_injective_states(T):
                continue
            for a in range(T.n):
                got = _letter_outputs(T._rows, T.states, a)
                for q in T.states:
                    assert got[q] == evaluate_periodic(T, q, EvPeriodicWord((), (a,)))

    def test_verify_pools(self, pools):
        self.check([g.machine for g in pools["verify"]])

    def test_powers(self, pools):
        self.check([g.machine for g in pools["powers"]])

    def test_seeded_words(self, pools):
        self.check([g.machine for g in pools["words"]])

    def test_letter_outputs_on_random_tables(self):
        # letter-a cycles through several states, each state on its own
        # rotation of the cycle's output
        rng = random.Random(12)
        for _ in range(300):
            n, size = rng.randint(2, 4), rng.randint(1, 7)
            T = Transducer(n, {
                q: {i: (tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))),
                        rng.randrange(size)) for i in range(n)}
                for q in range(size)})
            for a in range(n):
                want = {q: evaluate_periodic(T, q, EvPeriodicWord((), (a,))) for q in T.states}
                assert _letter_outputs(T._rows, T.states, a) == want

    def test_only_the_boundary_points_break_the_order(self):
        # h_q maps 0.2^w to 2^w, above the image 2,0,0^w of 1.0^w, while
        # 0.1^w goes to 1^w below it: only x.(n-1)^w shows the disorder.
        # In the mirror image, letters i -> 2-i on both sides, only y.0^w
        # shows it.
        I = {i: ((i,), "I") for i in range(3)}
        T = Transducer(3, {
            "q": {0: ((), "A"), 1: ((2, 0), "I"), 2: ((2, 1), "I")},
            "A": {0: ((0,), "I"), 1: ((1,), "I"), 2: ((2, 2), "I")},
            "I": I,
        })
        mirror = Transducer(3, {
            q: {2 - i: (tuple(2 - a for a in w), p) for i, (w, p) in enumerate(T.row(q))}
            for q in T.states
        })
        for M in (T, mirror):
            assert non_injective_states(M) == []
            assert orientation(M) is reference_orientation(M) is Orientation.NEITHER

    def test_each_verdict(self):
        machines = [machine_g4(), letter_complement(4), identity_transducer(3),
                    oplus(2, swap_transducer(), 4), machine_T(5), machine_U(4)]
        self.check(machines)
        got = {orientation(M) for M in machines}
        assert got == set(Orientation)
