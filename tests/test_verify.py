"""The letter-by-letter walk behind the oracle-equivalence check, the
generator inversions of word evaluation, and the paper suite's verdicts."""

import gc
import json
import math
from functools import lru_cache, partial
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cantortx.words import EMPTY
from cantortx.transducer import evaluate, minimize_rooted, product
from cantortx import verify
from cantortx.verify import (
    _oracle_pool,
    _padded_outputs_agree,
    _padded_runs_agree,
    _run_then,
    check_f_relations,
    check_oracle_equivalence,
    check_units_lattice,
    run_suite,
)

PAD = (0,) * 6
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_paper.json"


def reference_padded_runs_agree(n, f, g, p, q, pad, depth=6, a=EMPTY, b=EMPTY):
    """The walk before its verdicts were memoized: every word of length at
    most `depth` is decided on its own path through the tree."""
    if not _padded_outputs_agree(a + f(p, pad)[0], b + g(q, pad)[0]):
        return False
    if depth == 0:
        return True
    for i in range(n):
        (x, p2), (y, q2) = f(p, (i,)), g(q, (i,))
        if not reference_padded_runs_agree(n, f, g, p2, q2, pad, depth - 1, a + x, b + y):
            return False
    return True


def copy_run(state, w):
    """A run that copies its input; the state is the input read so far."""
    return tuple(w), state + tuple(w)


def flip_after(target):
    """copy_run, except that reading 0 right after `target` outputs 1."""

    def run(state, w):
        out = []
        for a in w:
            out.append(1 if state == target and a == 0 else a)
            state += (a,)
        return tuple(out), state

    return run


class TestOracleWalk:
    def test_every_word_up_to_the_depth_is_checked(self):
        for n in (2, 3):
            target = (n - 1,) * 6  # reached only by this word of length 6
            run = flip_after(target)
            assert not _padded_runs_agree(n, copy_run, run, (), (), PAD)
            assert _padded_runs_agree(n, copy_run, run, (), (), PAD, depth=5)
            assert _padded_runs_agree(n, copy_run, copy_run, (), (), PAD)

    def test_each_prefix_runs_once(self):
        letters = []

        def counted(state, w):
            if w != PAD:
                letters.append(state + w)
            return copy_run(state, w)

        n = 3
        assert _padded_runs_agree(n, counted, copy_run, (), (), PAD)
        assert len(letters) == len(set(letters)) == sum(n**k for k in range(1, 7))


def oracle_pairs(n):
    """(f, g, p, q) for every pair of the check's pool machines at n, run
    from their first states: the check's own pairs agree, most others do
    not.  Runs are cached as in the check."""
    pool = _oracle_pool(n)
    remember = lru_cache(maxsize=None)
    runs = []
    for M in pool:
        Mmin, rt = minimize_rooted(M, M.states[0])
        runs.append((remember(partial(evaluate, M)), M.states[0]))
        runs.append((remember(partial(evaluate, Mmin)), rt))
    for A, B in zip(pool, pool[1:]):
        root = (A.states[0], B.states[0])
        runs.append((remember(partial(_run_then, A, B)), root))
        runs.append((remember(partial(evaluate, product(A, B))), root))
    return [(f, g, p, q) for f, p in runs for g, q in runs]


class TestMemoizedWalkMatchesTheReference:
    def test_verify_pools_at_every_depth(self):
        verdicts = set()
        for n in (2, 3, 4):
            for f, g, p, q in oracle_pairs(n):
                for depth in range(7):
                    want = reference_padded_runs_agree(n, f, g, p, q, PAD, depth)
                    assert _padded_runs_agree(n, f, g, p, q, PAD, depth) == want
                    verdicts.add(want)
        assert verdicts == {True, False}

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_runs(self, data):
        n = data.draw(st.sampled_from((2, 3)))
        base = data.draw(tables(n))
        other, start = data.draw(variants(n, base))
        p = data.draw(st.sampled_from(sorted({s for s, _ in base})))
        a = data.draw(words(n))
        b = data.draw(st.sampled_from((a, a[:-1], a + (0,), data.draw(words(n)))))
        f, g = table_run(base), table_run(other)
        for depth in range(7):
            want = reference_padded_runs_agree(n, f, g, p, start(p), PAD, depth, a, b)
            assert _padded_runs_agree(n, f, g, p, start(p), PAD, depth, a, b) == want

    def test_check_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            assert check_oracle_equivalence() == (True, "all oracles agree")
            assert gc.collect() == 0
        finally:
            gc.enable()


# Random runs for the comparison.  A table maps (state, letter) to (output,
# next state).  A variant of a table differs from it in at most one output
# or destination: anywhere, at the sixth letter only (which only the words
# of length 6 reach), or at a position that only the pad reaches.  It may
# also hold each letter of output back by one letter, so that the two
# runs' outputs lead each other by different amounts.


def words(n, max_size=2):
    return st.lists(st.integers(0, n - 1), max_size=max_size).map(tuple)


@st.composite
def tables(draw, n):
    k = draw(st.integers(1, 3))
    return {(s, x): (draw(words(n)), draw(st.integers(0, k - 1)))
            for s in range(k) for x in range(n)}


def layered(table):
    """The same run, with the number of letters read in the state (capped
    at 12, the most that a word and the pad read)."""
    return {((d, s), x): (out, (min(d + 1, 12), t))
            for d in range(13) for (s, x), (out, t) in table.items()}


def delayed(table, n):
    """The same run, holding its last output letter back until the next."""
    out = {}
    for h in [EMPTY] + [(x,) for x in range(n)]:
        for (s, x), (w, t) in table.items():
            w = h + w
            out[(s, h), x] = (w[:-1], (t, w[-1:]))
    return out


@st.composite
def variants(draw, n, table):
    """(variant, start): start maps a state of the table to the variant's
    state that runs the same until the difference."""
    kind = draw(st.sampled_from(("same", "output", "dest", "sixth", "pad")))
    start = lambda s: s
    if kind in ("sixth", "pad"):
        table, start = layered(table), lambda s: (0, s)
        # position 5 reads the sixth letter; positions 6 and up are reached
        # only inside the pad, which reads only 0
        d = 5 if kind == "sixth" else draw(st.integers(6, 11))
        keys = [key for key in table if key[0][0] == d and (key[1] == 0) == (kind == "pad")]
    else:
        keys = sorted(table)
    if kind != "same":
        table = dict(table)
        key = draw(st.sampled_from(keys))
        out, dest = table[key]
        if kind == "dest":
            table[key] = (out, draw(st.sampled_from(sorted({s for s, _ in table}))))
        else:
            table[key] = (draw(words(n, 3).filter(lambda w: w != out)), dest)
    if draw(st.booleans()):
        table, first = delayed(table, n), start
        start = lambda s: (first(s), EMPTY)
    return table, start


def table_run(table):
    """The run of a table, cached as the check caches its runs."""

    @lru_cache(maxsize=None)
    def run(state, w):
        out = EMPTY
        for x in w:
            more, state = table[state, x]
            out += more
        return out, state

    return run


class TestWordEvaluation:
    def test_f_relations_invert_each_generator_once_per_word(self, record_calls):
        # two words, each inverting T and U, at n = 3, 4 and 5: a
        # generator's validation keeps its inverse, so the words build no
        # closure; the 12 are the validations of T and U for membership
        # and of their canonical cores for the generators
        calls = record_calls(("inverse_closure",))
        assert check_f_relations() == (True, "both relations at n=3,4,5")
        assert len(calls["inverse_closure"]) == 12


class TestRsigHomomorphism:
    def test_pooled_elements_are_analysed_once(self, record_calls):
        # every product and closure inverse is still formed, but each one
        # equal to a pooled element reads the pool's signature: the 158
        # (1,2) products and 22 of the inverses run no image fixpoint or
        # signature of their own (456 of each before)
        calls = record_calls(("group_product", "_inverse_core", "_fixpoint", "_signature_report"))
        assert verify.check_rsig_homomorphism() == (True, "homomorphism verified")
        assert {name: len(c) for name, c in calls.items()} == {
            "group_product": 368,
            "_inverse_core": 149,
            "_fixpoint": 276,
            "_signature_report": 276,
        }

    def test_a_product_outside_the_pool_fails(self, monkeypatch):
        # with no third layer, the (1,2) products of three generators are
        # missing from the pool
        close = verify._close_pool_products

        def two_layers(gens, max_len):
            layers, products = close(gens, 2)
            layers[3] = []
            return layers, products

        monkeypatch.setattr(verify, "_close_pool_products", two_layers)
        ok, detail = verify.check_rsig_homomorphism()
        assert not ok and "(1+2 product) outside the pool n=3" in detail.split("; ")


class TestUnitsLattice:
    def test_one_lcm_claim_per_gcd_class(self, record_calls):
        # one call per (m, gcd(i, m), gcd(j, m)) for m = 2..50, not one per
        # (m, i, j), of which there are 42,924
        calls = record_calls(("verify_lcm_claim",))
        assert check_units_lattice() == (True, "lcm claim m<=50; divisor family")
        assert len(calls["verify_lcm_claim"]) == 1086
        assert len({(c["m"], c["i"], c["j"]) for c in calls["verify_lcm_claim"]}) == 1086

    def test_failure_labels_follow_the_triples(self, monkeypatch):
        # a claim made to fail on a few gcd classes is reported once per
        # (m, i, j) of those classes, in the order of the triples: the
        # first four are m=12 with (i, j) = (4, 2), (4, 6), (4, 10), (8, 2)
        failing = {(12, 4, 2), (12, 4, 6), (50, 5, 10)}
        monkeypatch.setattr(verify, "verify_lcm_claim",
                            lambda m, i, j: (m, i, j) not in failing)
        want = [f"lcm claim m={m},i={i},j={j}"
                for m in range(2, 51) for i in range(1, m + 1) for j in range(1, m + 1)
                if (m, math.gcd(i, m), math.gcd(j, m)) in failing]
        assert check_units_lattice() == (False, "; ".join(want[:4]))
        assert len(want) > 4


class TestPaperSuite:
    def test_verdicts_and_details_match_the_golden(self):
        want = json.loads(GOLDEN.read_text())
        got = [[name, ok, detail] for name, ok, detail, _ in run_suite("paper")]
        assert got == want
