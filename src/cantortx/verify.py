"""The reproducibility suite: every published computation the library must
reproduce exactly, grouped into named checks.  Each check returns (ok,
detail); the CLI `tx verify` runs them and prints one PASS/FAIL line each.
The pytest acceptance module asserts the same facts with frozen values.

The oracle check compares two runs on every word of length at most 6
followed by a pad.  It decides each subtree of words once per (state pair,
remaining depth, lead), the lead being the output by which one run is
ahead once the agreed common prefix is dropped: every comparison below
reads only the lead and the runs' later output, so the key determines the
verdict and the memoized walk is exact (see _padded_runs_agree)."""

from __future__ import annotations

import math
import time
from functools import lru_cache, partial
from itertools import product as cartesian

from .words import EMPTY, rotation_class_of
from .transducer import evaluate, minimize_rooted, product
from .initial import evaluate_initial, split_rooted
from .synchronize import minimal_sync_level
from .images import Orientation, images, is_homeomorphism_state, orientation
from .invert import invert_initial, is_bisynchronizing_core
from .signature import (
    divisors_generate_units,
    inverse_reduced_signature,
    member_over_roots,
    member_over_roots_ordered,
    membership_monotonicity_check,
    signature_class_partition,
    signature_report,
    verify_lcm_claim,
)
from .machines import (
    cycle_transducer,
    identity_transducer,
    letter_complement,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    realize,
    swap_transducer,
)
from .group import (
    GroupElement,
    commutator_word,
    element_order,
    group_product,
    identity_element,
    invert_element,
    is_identity,
    orbit_lengths,
    verify_relation,
)


def _expect(failures, ok, label):
    if not ok:
        failures.append(label)


def check_g_suite():
    failures = []
    g = machine_g4()
    _expect(failures, minimal_sync_level(g) == 1, "sync level 1")
    img = images(g)
    _expect(failures, img["a"].cones == ((0,), (1,)), "im(a) = {0,1}")
    _expect(failures, img["b"].cones == ((2,), (3,)), "im(b) = {2,3}")
    rep = signature_report(g)
    _expect(failures, rep.per_word_m == (2, 2, 2, 2), "m values")
    _expect(failures, rep.sig == 8 and rep.rsig == 2, "sig 8, rsig 2")
    members = [member_over_roots_ordered(g, r) for r in (1, 2, 3)]
    _expect(failures, members == [False, False, True], "member exactly at r=3")
    G = GroupElement.from_machine(g)
    order = element_order(G, 8)
    _expect(failures, order.finite and order.value == 2, "order 2")
    _expect(failures, orientation(g) is Orientation.PRESERVING, "orientation")
    return not failures, "; ".join(failures) or "all exact values reproduced"


def check_pi_r_identity():
    failures = []
    for n in (3, 4):
        piR = GroupElement.from_machine(letter_complement(n))
        order = element_order(piR, 8)
        _expect(failures, order.finite and order.value == 2, f"order piR n={n}")
        _expect(failures, piR.rsig == 1, f"rsig piR n={n}")
        for r in range(1, n):
            _expect(
                failures,
                member_over_roots_ordered(piR.machine, r),
                f"piR member r={r} n={n}",
            )
        ident = identity_element(n)
        _expect(failures, is_identity(ident), f"identity n={n}")
        _expect(
            failures,
            is_identity(group_product(ident, piR)) is False
            and group_product(ident, piR) == piR,
            f"identity law n={n}",
        )
    return not failures, "; ".join(failures) or "orders, signatures, membership"


def check_f_relations():
    failures = []
    rel1 = commutator_word([("U", -1), ("T", 1)], [("T", 1), ("U", 1), ("T", -1)])
    rel2 = commutator_word(
        [("U", -1), ("T", 1)], [("T", 1), ("T", 1), ("U", 1), ("T", -1), ("T", -1)]
    )
    for n in (3, 4, 5):
        T = machine_T(n)
        U = machine_U(n)
        for (M, q) in ((T, "a"), (T, "b"), (U, "p")):
            _expect(failures, is_homeomorphism_state(M, q), f"homeo state {q} n={n}")
        _expect(failures, member_over_roots_ordered(T, 1), f"T member r=1 n={n}")
        _expect(failures, member_over_roots_ordered(U, 1), f"U member r=1 n={n}")
        gens = {"T": GroupElement.from_machine(T), "U": GroupElement.from_machine(U)}
        _expect(failures, verify_relation(gens, rel1), f"relation 1 n={n}")
        _expect(failures, verify_relation(gens, rel2), f"relation 2 n={n}")
    return not failures, "; ".join(failures) or "both relations at n=3,4,5"


def check_infinite_order():
    failures = []
    T3 = GroupElement.from_machine(machine_T(3))
    lens = orbit_lengths(T3, rotation_class_of((1, 2)), 6)
    _expect(
        failures,
        all(a < b for a, b in zip(lens, lens[1:])),
        f"orbit lengths grow: {lens}",
    )
    order = element_order(T3, 16)
    _expect(failures, not order.finite, "order exceeds bound 16")
    return not failures, "; ".join(failures) or f"orbit {lens}, no order up to 16"


def _block_summand(d):
    return swap_transducer() if d == 2 else cycle_transducer(d)


def check_block_sums():
    failures = []
    for n, d in ((4, 2), (6, 2), (6, 3)):
        M = oplus(d, _block_summand(d), n)
        rep = signature_report(M)
        _expect(failures, rep.rsig == d, f"rsig={d} for n={n},d={d}")
        img = images(M)
        _expect(failures, is_bisynchronizing_core(M), f"bi-synchronizing n={n},d={d}")
        m = n // d
        for i in range(m):
            want = tuple((d * i + b,) for b in range(d))
            for q in _block_summand(d).states:
                _expect(
                    failures,
                    img[(q, i)].cones == want,
                    f"image block {i} n={n},d={d}",
                )
    return not failures, "; ".join(failures) or "rsig=d, bi-sync, block images"


def _generator_pool(n):
    base = [identity_transducer(n), letter_complement(n)]
    if n == 4:
        base.append(machine_g4())
    if n >= 3:
        base.append(machine_T(n))
        base.append(machine_U(n))
    for d in range(2, n):
        if n % d == 0:
            base.append(oplus(d, _block_summand(d), n))
    return [GroupElement.from_machine(M) for M in base]


def _close_pool_products(gens, max_len):
    """(layers, products): layers maps each length up to max_len to the
    products of that many generators, deduplicated by canonical machine;
    products maps (e, g) to the pool's element of the product e.g, for e in
    a layer below max_len and g a generator, so it holds no element that
    the layers do not hold."""
    layers = {1: []}
    seen = {}
    products = {}
    for g in gens:
        if g.machine not in seen:
            seen[g.machine] = g
            layers[1].append(g)
    for k in range(2, max_len + 1):
        layers[k] = []
        for e in layers[k - 1]:
            for g in gens:
                p = group_product(e, g)
                if p.machine not in seen:
                    seen[p.machine] = p
                    layers[k].append(p)
                products[e, g] = seen[p.machine]
    return layers, products


def check_rsig_homomorphism():
    """A product or inverse equal to a pooled element is read through the
    pool, so its analyses, memoized per machine object, run once.  By
    associativity each (1,2) product is a product of at most three
    generators, so it is pooled."""
    failures = []
    for n in (3, 4):
        gens = _generator_pool(n)
        # the closure has formed every (1,1) and (2,1) product already
        layers, products = _close_pool_products(gens, 3)
        everything = layers[1] + layers[2] + layers[3]
        pool = {X.machine: X for X in everything}
        m = n - 1
        for i, j in ((1, 1), (1, 2), (2, 1)):
            for X in layers[i]:
                for Y in layers[j]:
                    P = products.get((X, Y))
                    if P is None:
                        P = pool.get(group_product(X, Y).machine)
                    if P is None:
                        failures.append(f"({i}+{j} product) outside the pool n={n}")
                        continue
                    want = (X.rsig * Y.rsig - 1) % m + 1
                    if P.rsig != want:
                        failures.append(f"rsig({i}+{j} product) n={n}")
        for X in everything:
            img = images(X.machine)
            inv = invert_element(X)
            if inverse_reduced_signature(X.machine) != pool.get(inv.machine, inv).rsig:
                failures.append(f"inverse signature mismatch n={n}")
            residues = {(len(img[q].cones) - 1) % m + 1 for q in X.machine.states}
            if residues != {X.rsig}:
                failures.append(f"m_q not constant n={n}")
        if failures:
            break
    return not failures, "; ".join(sorted(set(failures))) or "homomorphism verified"


def check_n7_partition():
    got = signature_class_partition(7, {1, 5})
    want = {frozenset({1, 2, 4, 5}), frozenset({3, 6})}
    ok = got == want
    return ok, f"partition {sorted(map(sorted, got))}"


def check_units_lattice():
    failures = []
    for m in range(2, 51):
        # verify_lcm_claim reads i and j only through gcd(i, m) and
        # gcd(j, m), the divisors of m, so each pair of divisors is checked
        # once, and the (i, j) of a failing pair are listed in order
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        failing = {(a, b) for a in divisors for b in divisors
                   if not verify_lcm_claim(m, a, b)}
        if failing:
            failures.extend(f"lcm claim m={m},i={i},j={j}"
                            for i in range(1, m + 1) for j in range(1, m + 1)
                            if (math.gcd(i, m), math.gcd(j, m)) in failing)
    for n in (4, 10, 28):
        if not divisors_generate_units(n):
            failures.append(f"divisors do not generate units for n={n}")
    return not failures, "; ".join(failures[:4]) or "lcm claim m<=50; divisor family"


def _padded_outputs_agree(out1, out2):
    k = min(len(out1), len(out2))
    return out1[:k] == out2[:k]


def _run_then(A, B, state, w):
    """evaluate for A's output fed to B, from the pair of states `state`."""
    a, b = state
    mid, a = evaluate(A, a, w)
    out, b = evaluate(B, b, mid)
    return out, (a, b)


def _padded_runs_agree(n, f, g, p, q, pad, depth=6, a=EMPTY, b=EMPTY, memo=None):
    """Do the runs f from p and g from q, which have output a and b so far,
    agree as far as both outputs go on every word of length at most `depth`
    followed by `pad`?  A run maps (state, word) to (output, end state) as
    evaluate does.  The walk is depth first and each word extends its
    parent's runs by one letter, so every prefix is run at most once.

    Each subtree's verdict is memoized on (p, q, depth, lead), where the
    lead is what is left of a and b once their common prefix is dropped (one
    of the two is empty).  The key is exact: every check in the subtree
    compares a and b, each extended by its run's later output, as far as
    both go, and the dropped prefix is the same on both sides.  Leave
    `memo` out: each top-level call makes its own."""
    k = min(len(a), len(b))
    if a[:k] != b[:k]:
        return False  # as this node's pad check would
    a, b = a[k:], b[k:]
    if memo is None:
        memo = {}
    key = (p, q, depth, a, b)
    if key not in memo:
        verdict = _padded_outputs_agree(a + f(p, pad)[0], b + g(q, pad)[0])
        if verdict and depth > 0:
            for i in range(n):
                (x, p2), (y, q2) = f(p, (i,)), g(q, (i,))
                if not _padded_runs_agree(n, f, g, p2, q2, pad, depth - 1, a + x, b + y, memo):
                    verdict = False
                    break
        memo[key] = verdict
    return memo[key]


def _oracle_pool(n):
    """The machines whose minimizations and products the oracle check runs."""
    pool = [identity_transducer(n), letter_complement(n)]
    if n == 4:
        pool.append(machine_g4())
        pool.append(oplus(2, swap_transducer(), 4))
    if n >= 3:
        pool.append(machine_T(n))
        pool.append(machine_U(n))
    return pool


def check_oracle_equivalence():
    failures = []
    for n in (2, 3, 4):
        pool = _oracle_pool(n)
        pad = (0,) * 6
        # a run's answer on one (state, letter or pad) is computed once
        remember = lru_cache(maxsize=None)
        for M in pool:
            Mmin, rt = minimize_rooted(M, M.states[0])
            f, g = remember(partial(evaluate, M)), remember(partial(evaluate, Mmin))
            if not _padded_runs_agree(n, f, g, M.states[0], rt, pad):
                failures.append(f"minimize oracle n={n}")
        for A, B in zip(pool, pool[1:]):
            f, g = remember(partial(_run_then, A, B)), remember(partial(evaluate, product(A, B)))
            root = (A.states[0], B.states[0])
            if not _padded_runs_agree(n, f, g, root, root, pad):
                failures.append(f"product oracle n={n}")
        if n >= 3:
            for M in pool[2:3]:
                X = GroupElement.from_machine(M)
                A = realize(X.machine, n - 1, ordered=member_over_roots_ordered(X.machine, n - 1))
                Ainv = invert_initial(A)
                for a in range(A.r):
                    for w in cartesian(range(n), repeat=4):
                        out, _ = evaluate_initial(A, a, w + pad)
                        b, tail = split_rooted(out)
                        back, _ = evaluate_initial(Ainv, b, tail)
                        b2, tail2 = split_rooted(back)
                        if b2 != a or not _padded_outputs_agree(tail2, w + pad):
                            failures.append(f"invert oracle n={n}")
                            break
    return not failures, "; ".join(sorted(set(failures))) or "all oracles agree"


def check_membership_lattice():
    failures = []
    for n in (3, 4):
        for X in _generator_pool(n):
            T = X.machine
            if not member_over_roots(T, n - 1):
                failures.append(f"member at n-1 fails n={n}")
            for i in range(1, n):
                for j in range(1, n):
                    if not membership_monotonicity_check(T, i, j):
                        failures.append(f"monotonicity i={i},j={j} n={n}")
    return not failures, "; ".join(sorted(set(failures))) or "lattice laws hold"


CHECKS = [
    ("g-suite", check_g_suite),
    ("pi-R-and-identity", check_pi_r_identity),
    ("F-relations", check_f_relations),
    ("infinite-order-witness", check_infinite_order),
    ("block-sum-suite", check_block_sums),
    ("rsig-homomorphism", check_rsig_homomorphism),
    ("n7-partition", check_n7_partition),
    ("units-lattice", check_units_lattice),
    ("oracle-equivalence", check_oracle_equivalence),
    ("membership-lattice", check_membership_lattice),
]

SUITES = {
    "paper": [name for name, _ in CHECKS],
    "F-relations": ["F-relations"],
}


def run_suite(suite="paper"):
    """Run the named suite; returns [(name, ok, detail, seconds)]."""
    names = SUITES.get(suite)
    if names is None:
        raise KeyError(f"unknown suite {suite!r}")
    results = []
    for name, fn in CHECKS:
        if name not in names:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with the reason attached
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail, time.perf_counter() - start))
    return results
