"""Signatures and membership.

For a synchronizing machine whose states all have clopen images, the
signature is the sum of the image-antichain sizes m_q of the states forced by
the words of the minimal synchronizing length k.  It is computed without
enumerating the n^k words: synchronize.sync_counts counts the words that
force each state by pushing path counts k letters from one start state, and
the signature is the sum over forced states of word count times m_q.
The per-word values, in lexicographic word order, are a lazy sequence of
length n^k, iterated block by block (PerWordM).  The signature's residue
mod n-1 (kept in 1..n-1) is a multiplicative invariant.  Membership of a
core element over r roots is the congruence r*(sig - 1) = 0 mod n-1 on top
of the structural validation."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import index as as_index

from .words import InvalidInput
from .transducer import VALID, DegenerateTransducer, Transducer, _plain, memoized
from .synchronize import (
    NotSynchronizing,
    _destination_rows,
    core_states,
    sync_counts,
)
from .images import (
    Orientation,
    NotClopenImage,
    images,
    non_injective_states,
    orientation,
)
from .invert import inverse_core


def residue(value, n):
    """value mod n-1 represented in 1..n-1 (so units stay visibly units)."""
    return (value - 1) % (n - 1) + 1


BLOCK_VALUES = 256  # the most values of one precomputed block of PerWordM


class PerWordM(Sequence):
    """m of the state forced by each word of length `level`, in lexicographic
    word order.  Read-only and lazy: every word of that length forces the
    same end state from every start state, so a word's value is m of the
    state it reaches from one fixed start state.  Indexing walks one
    destination row per letter from that state.  Compares equal to a tuple
    or list of the same values.

    Iteration splits the words into their first level - d letters and their
    last d, with d the largest such that n^d <= BLOCK_VALUES and d <= level.
    Each state s reached after the first part has one block, the values of
    the n^d words read from s in order; the blocks are built once, from the
    states at depth level back to depth level - d, in O(|Q| * n^d) values,
    and kept.  Only the first part is walked in Python, depth first, and the
    values come block by block, so iteration costs n^(level-d) steps plus
    the n^level values themselves.  Nothing is stored per word, so the
    length n^level may be far beyond memory."""

    __slots__ = ("n", "level", "_rows", "_start", "_m", "_blocks")

    def __init__(self, n, level, rows, start, m):
        self.n = n
        self.level = level
        self._rows = rows  # state -> its n destinations
        self._start = start
        self._m = m  # forced state -> its m
        self._blocks = None  # state at depth level - d -> its block

    def __len__(self):
        return self.n**self.level

    def __getitem__(self, i):
        size = self.n**self.level
        i = as_index(i)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("per-word m index out of range")
        q = self._start
        for place in range(self.level - 1, -1, -1):
            q = self._rows[q][i // self.n**place % self.n]
        return self._m[q]

    def __iter__(self):
        if self._blocks is None:
            self._blocks = self._build_blocks()
        return chain.from_iterable(map(self._blocks.__getitem__, self._tops()))

    def _depth(self):
        """d: the length of the words that one block reads."""
        d = 0
        while d < self.level and self.n ** (d + 1) <= BLOCK_VALUES:
            d += 1
        return d

    def _build_blocks(self):
        """{state at depth level - d: its block}.  The states at each depth
        are pushed forward from the start, then the blocks are built back
        from depth level, where a state's block is its m."""
        rows, d = self._rows, self._depth()
        layers = [{self._start}]
        for _ in range(self.level):
            layers.append({p for q in layers[-1] for p in rows[q]})
        blocks = {q: (self._m[q],) for q in layers[-1]}
        for layer in reversed(layers[self.level - d:-1]):
            blocks = {
                q: tuple(chain.from_iterable(map(blocks.__getitem__, rows[q])))
                for q in layer
            }
        return blocks

    def _tops(self):
        """The states reached by the words of length level - d, in
        lexicographic word order, walked depth first."""
        rows, top = self._rows, self.level - self._depth()
        stack = [iter((self._start,))]  # a state popped at height h is at depth h-1
        while stack:
            q = next(stack[-1], None)
            if q is None:
                stack.pop()
            elif len(stack) > top:
                yield q
            else:
                stack.append(iter(rows[q]))

    def __eq__(self, other):
        if not isinstance(other, (PerWordM, tuple, list)):
            return NotImplemented
        size = self.n**self.level
        return size == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"<PerWordM n={self.n} level={self.level}>"


@dataclass
class SignatureReport:
    """sig is the sum of words * m over `forced`, which maps each forced
    state, in state order, to (the number of words of length sync_level
    that force it, its m)."""

    sync_level: int
    per_word_m: PerWordM
    sig: int
    rsig: int
    forced: dict


def signature_report(T):
    """Signature data of a synchronizing machine with injective clopen-image
    states; preconditions are checked and named.  Memoized on T."""
    return memoized(T, "signature_report",
                    lambda: _signature_report(_plain(T, "signature_report")))


def _signature_report(T):
    try:
        k, counts = sync_counts(T)
    except NotSynchronizing:
        raise NotSynchronizing("signature needs a synchronizing machine") from None
    img = images(T)
    bad = non_injective_states(T)
    if bad:
        raise InvalidInput(f"state {bad[0]!r} is not injective")
    m = {q: len(img[q].cones) for q in counts}
    forced = {q: (counts[q], m[q]) for q in T.states if q in counts}
    sig = sum(words * mq for words, mq in forced.values())
    per = PerWordM(T.n, k, _destination_rows(T), T.states[0], m)
    return SignatureReport(k, per, sig, residue(sig, T.n), forced)


def validation_failure(T):
    """None when T is a valid core element (core, bi-synchronizing, every
    state injective with clopen image); otherwise the reason.  The verdict
    is memoized on T, and so is the inverse that decided it (inverse_core).
    Every check is exact: the images are decided clopen or not, and the
    closure of injective states with clopen images is finite, so no bound
    can turn a valid element away."""
    if not isinstance(T, Transducer):
        return "not a plain transducer"
    return memoized(T, VALID, lambda: _core_failure(T))


def require_valid(T):
    """T, when it is a valid core element; else an InvalidInput naming why."""
    fail = validation_failure(T)
    if fail is not None:
        raise InvalidInput(f"not a valid core element: {fail}")
    return T


def _core_failure(T):
    """validation_failure(T) of a plain machine, computed."""
    try:
        forced = core_states(T)
    except NotSynchronizing:
        return "not synchronizing"
    if len(forced) != len(T.states):
        return "not core: some states are not forced by long words"
    try:
        images(T)
    except NotClopenImage:
        return "some state image is not clopen"
    except DegenerateTransducer as exc:
        return str(exc)
    bad = non_injective_states(T)
    if bad:
        return f"state {bad[0]!r} is not injective"
    try:
        inverse_core(T)
    except NotSynchronizing:
        return "the inverse is not synchronizing"
    return None


CONGRUENCE_FAILS = "membership congruence fails"
NOT_ORDERED = "the element neither preserves nor reverses the lexicographic order"


def _check_root_count(n, r):
    if not (1 <= r <= n - 1):
        raise InvalidInput(f"root count must be in 1..{n - 1}")


def _congruence_holds(n, r, sig):
    """The membership congruence r*(sig - 1) = 0 mod n-1."""
    return r * (sig - 1) % (n - 1) == 0


def membership_failure(T, r, ordered):
    """The reason T is not a member over r roots, ordered or not: None for a
    member, else validation_failure(T), CONGRUENCE_FAILS or (ordered only)
    NOT_ORDERED."""
    n = T.n
    _check_root_count(n, r)
    fail = validation_failure(T)
    if fail is not None:
        return fail
    if not _congruence_holds(n, r, signature_report(T).sig):
        return CONGRUENCE_FAILS
    if ordered and orientation(T) is Orientation.NEITHER:
        return NOT_ORDERED
    return None


def member_over_roots(T, r):
    """Is T the long-run behaviour of some homeomorphism machine over r
    roots?  False (never an exception) when validation or the congruence
    fails."""
    return membership_failure(T, r, False) is None


def member_over_roots_ordered(T, r):
    """Membership over r roots for the circle-compatible subgroup: the
    element must additionally preserve or reverse the lexicographic order."""
    return membership_failure(T, r, True) is None


def inverse_reduced_signature(T):
    """Reduced signature of the inverse, computed directly on T: pick a state
    q and an image cone v, take j with every length-j output from q at least
    |v| long, and count the length-j inputs whose output starts with v."""
    require_valid(T)
    q = T.states[0]
    img = images(T)
    if img[q].is_empty():
        raise InvalidInput("state has empty image")
    v = min(img[q].cones)
    j = _depth_with_min_output(T, q, len(v))
    count = _count_outputs_with_prefix(T, q, j, v)
    return residue(count, T.n)


def _depth_with_min_output(T, q, need):
    """The least j with every length-j output from q at least `need` long;
    at most |Q| * need, as every |Q| letters pass a cycle, which outputs."""
    minlen = {p: 0 for p in T.states}
    j = 0
    while minlen[q] < need:
        minlen = {p: min(len(w) + minlen[d] for w, d in T.row(p)) for p in T.states}
        j += 1
    return j


def _count_outputs_with_prefix(T, q, depth, v):
    """The number of inputs of length `depth` from q whose output starts
    with v: a count of input words per (state, rest of v still to match) is
    pushed through one letter per step."""
    layer = {(q, tuple(v)): 1}
    for _ in range(depth):
        nxt = {}
        for (p, t), words in layer.items():
            for w, p2 in T.row(p):
                k = min(len(w), len(t))
                if w[:k] == t[:k]:
                    key = (p2, t[k:])
                    nxt[key] = nxt.get(key, 0) + words
        layer = nxt
    return sum(words for (_, t), words in layer.items() if not t)


# --- the class partition and the units lattice ------------------------------


def signature_class_partition(n, sigs):
    """Partition of the root counts 1..n-1 induced by a set of achieved
    reduced signatures: r and s fall together iff every j in the set makes
    r(j-1) and s(j-1) vanish mod n-1 simultaneously.

    This is the per-element biconditional derived from the membership
    congruence; it reproduces the published n=7 classes.  The source text
    states the grouping condition in a single-sided form; the biconditional
    is what the congruence actually yields."""
    m = n - 1
    canon = set()
    for s in sigs:
        s = residue(s, n)
        if math.gcd(s, m) != 1:
            raise InvalidInput(f"reduced signature {s} is not a unit mod {m}")
        canon.add(s)

    def profile(r):
        return tuple(_congruence_holds(n, r, j) for j in sorted(canon))

    groups = {}
    for r in range(1, n):
        groups.setdefault(profile(r), []).append(r)
    return {frozenset(g) for g in groups.values()}


def units(m):
    return [a for a in range(m) if math.gcd(a, m) == 1] or [0]


def units_fixing_subgroup(m, i):
    """Units a of Z_m with a*i = i mod m; depends only on gcd(i, m):
    a*i = i mod m exactly when a = 1 mod m/gcd(i, m)."""
    step = m // math.gcd(i, m)
    return {a % m for a in range(1, m + 1, step) if math.gcd(a, m) == 1}


def subgroup_generated(m, gens):
    """The submonoid of Z_m generated by gens: the subgroup when they are
    units.  It is closed one generator at a time.  The set S so far is
    closed under products, so a generator g in S adds nothing, and any
    other adds S.g, S.g^2, ... up to the first power that brings nothing
    new; each round multiplies only the elements the last round added."""
    elems = {1 % m}
    for g in gens:
        g %= m
        frontier = set() if g in elems else elems
        while frontier:
            frontier = {a * g % m for a in frontier} - elems
            elems |= frontier
    return elems


def verify_lcm_claim(m, i, j):
    """The subgroup generated by the fixers of i and j equals the fixer of
    lcm(gcd(i,m), gcd(j,m))."""
    gen = subgroup_generated(m, units_fixing_subgroup(m, i) | units_fixing_subgroup(m, j))
    r = math.lcm(math.gcd(i, m), math.gcd(j, m))
    return gen == units_fixing_subgroup(m, r)


def divisors_generate_units(n):
    m = n - 1
    divs = {d % m for d in range(1, n + 1) if n % d == 0}
    return subgroup_generated(m, divs) == set(units(m))


def membership_monotonicity_check(T, i, j):
    """Property helper: membership at i propagates along multipliers m with
    m*i = j mod n-1, and membership at j matches membership at gcd(j, n-1).
    T is validated and its signature taken once; membership at each root
    count is then the congruence."""
    n = T.n
    m = n - 1
    for r in (i, j):
        _check_root_count(n, r)
    if validation_failure(T) is not None:  # a member nowhere: both laws hold
        return True
    sig = signature_report(T).sig

    def member(r):
        return _congruence_holds(n, r, sig)

    ok = True
    if member(i) and any((k * i) % m == j % m for k in range(m)):
        ok = member(j)
    d = residue(math.gcd(j, m), n)
    return ok and member(j) == member(d)
