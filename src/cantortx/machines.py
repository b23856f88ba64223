"""Built-in machines, the block-sum construction over a divisor alphabet,
prefix-exchange homeomorphisms, viable combinations, and realization of a
core element as an initial machine over the r-rooted space."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import islice

from .words import (
    EMPTY,
    EvPeriodicWord,
    InvalidInput,
    canonicalize_clopen,
    first_difference,
    lex_compare_evp,
    whole_space,
    LESS,
)
from .transducer import Transducer
from .initial import (
    InitialTransducer,
    dot,
    evaluate_periodic_initial,
    minimize_initial,
    product_initial,
    rooted_word,
)
from .synchronize import is_synchronizing
from .images import images, is_homeomorphism_state, orientation, Orientation


def identity_transducer(n):
    """One state copying every letter."""
    return Transducer(n, {"0": {i: ((i,), "0") for i in range(n)}})


def letter_complement(n):
    """One state sending letter i to n-1-i; order two, reverses the
    lexicographic order."""
    return Transducer(n, {"0": {i: ((n - 1 - i,), "0") for i in range(n)}})


def machine_g4():
    """Two-state involution over the 4-letter alphabet whose state images are
    the lower and upper half of the space."""
    return Transducer(
        4,
        {
            "a": {0: ((0,), "a"), 1: ((0,), "b"), 2: ((1,), "a"), 3: ((1,), "b")},
            "b": {0: ((2,), "a"), 1: ((2,), "b"), 2: ((3,), "a"), 3: ((3,), "b")},
        },
    )


def machine_T(n):
    """Three-state infinite-order machine with homeomorphism states a and b;
    the middle letters 1..n-2 each follow the x-pattern of the figure."""
    if n < 3:
        raise InvalidInput("needs n >= 3")
    mid = range(1, n - 1)
    a_row = {0: (EMPTY, "c"), n - 1: ((n - 1, n - 1), "b")}
    a_row.update({x: ((n - 1, x), "a") for x in mid})
    b_row = {0: ((0,), "b"), n - 1: ((n - 1,), "b")}
    b_row.update({x: ((x,), "a") for x in mid})
    c_row = {0: ((0,), "b"), n - 1: ((n - 1, 0), "b")}
    c_row.update({x: ((x,), "a") for x in mid})
    return Transducer(n, {"a": a_row, "b": b_row, "c": c_row})


def machine_U(n):
    """Four-state infinite-order machine with homeomorphism state p."""
    if n < 3:
        raise InvalidInput("needs n >= 3")
    mid = range(1, n - 1)
    p_row = {0: ((0,), "q"), n - 1: ((n - 1,), "s")}
    p_row.update({x: ((x,), "p") for x in mid})
    q_row = {0: (EMPTY, "t"), n - 1: ((n - 1, n - 1), "s")}
    q_row.update({x: ((n - 1, x), "p") for x in mid})
    s_row = {0: ((0,), "s"), n - 1: ((n - 1,), "s")}
    s_row.update({x: ((x,), "p") for x in mid})
    t_row = {0: ((0,), "s"), n - 1: ((n - 1, 0), "s")}
    t_row.update({x: ((x,), "p") for x in mid})
    return Transducer(n, {"p": p_row, "q": q_row, "s": s_row, "t": t_row})


def machine_A(n):
    """The {0, n-1} sub-machine of machine_T, re-coded over a 2-letter
    alphabet (0 stays 0, n-1 becomes 1)."""
    if n < 3:
        raise InvalidInput("needs n >= 3")
    return Transducer(
        2,
        {
            "a": {0: (EMPTY, "c"), 1: ((1, 1), "b")},
            "b": {0: ((0,), "b"), 1: ((1,), "b")},
            "c": {0: ((0,), "b"), 1: ((1, 0), "b")},
        },
    )


def machine_B(n):
    """The {0, n-1} sub-machine of machine_U over a 2-letter alphabet."""
    if n < 3:
        raise InvalidInput("needs n >= 3")
    return Transducer(
        2,
        {
            "p": {0: ((0,), "q"), 1: ((1,), "s")},
            "q": {0: (EMPTY, "t"), 1: ((1, 1), "s")},
            "s": {0: ((0,), "s"), 1: ((1,), "s")},
            "t": {0: ((0,), "s"), 1: ((1, 0), "s")},
        },
    )


def cycle_transducer(d):
    """One state sending i to i+1 mod d; synchronous and invertible."""
    return Transducer(d, {"0": {i: (((i + 1) % d,), "0") for i in range(d)}})


def swap_transducer():
    """One state swapping 0 and 1 over the 2-letter alphabet."""
    return letter_complement(2)


def _validate_block_summand(T):
    d = T.n
    for q in T.states:
        outs = []
        for i in range(d):
            w = T.output(q, i)
            if len(w) != 1:
                raise InvalidInput("block summand must be synchronous")
            outs.append(w[0])
        if sorted(outs) != list(range(d)):
            raise InvalidInput("block summand states must permute the alphabet")
    if not is_synchronizing(T):
        raise InvalidInput("block summand must be synchronizing")
    loops = {}
    for b in range(d):
        hits = [q for q in T.states if T.dest(q, b) == q]
        if len(hits) != 1:
            raise InvalidInput(f"letter {b} needs a unique loop state")
        loops[b] = hits[0]
    return loops


def oplus(d, T, n):
    """Block sum: n = m*d copies of the synchronous invertible machine T, one
    per block of d letters.  Within block i the copy acts as T on letters
    di..di+d-1; a cross-block letter dj+b outputs di+b and hands control to
    block j at the loop state of b."""
    if not (1 <= d < n) or n % d != 0:
        raise InvalidInput("d must be a proper divisor of n")
    if T.n != d:
        raise InvalidInput("summand alphabet must have d letters")
    loops = _validate_block_summand(T)
    m = n // d
    table = {}
    for i in range(m):
        for q in T.states:
            row = {}
            for j in range(m):
                for b in range(d):
                    letter = d * j + b
                    if j == i:
                        w = T.output(q, b)
                        row[letter] = ((d * i + w[0],), (T.dest(q, b), j))
                    else:
                        row[letter] = ((d * i + b,), (loops[b], j))
            table[(q, i)] = row
    return Transducer(n, table)


# --- prefix exchanges -------------------------------------------------------


@dataclass
class PrefixExchange:
    """A homeomorphism of the r-rooted space replacing domain prefixes by
    range prefixes: domain[i] maps onto range_[bijection[i]].  Antichains are
    kept sorted; the cyclic flag records whether the bijection rotates the
    lexicographic order (i -> i+shift mod len)."""

    n: int
    r: int
    domain: tuple  # sorted tuple of (root, word)
    range_: tuple
    bijection: tuple  # bijection[i] = index into range_

    def __post_init__(self):
        self.domain = tuple(sorted((a, tuple(w)) for a, w in self.domain))
        self.range_ = tuple(sorted((a, tuple(w)) for a, w in self.range_))
        if len(self.domain) != len(self.range_):
            raise InvalidInput("domain and range antichains must have equal size")
        if sorted(self.bijection) != list(range(len(self.domain))):
            raise InvalidInput("bijection must be a permutation of indices")
        for side in (self.domain, self.range_):
            _check_complete_antichain(self.n, self.r, side)

    @property
    def is_cyclic(self):
        ell = len(self.domain)
        return any(
            all(self.bijection[i] == (i + j) % ell for i in range(ell))
            for j in range(ell)
        )


def _check_complete_antichain(n, r, entries):
    for root in range(r):
        words = [w for a, w in entries if a == root]
        if len(set(words)) != len(words):
            raise InvalidInput("antichain has repeated entries")
        for u in words:
            for v in words:
                if u != v and u == v[: len(u)]:
                    raise InvalidInput("antichain entries must be incomparable")
        if not canonicalize_clopen(n, words).is_whole():
            raise InvalidInput(f"antichain does not cover root {root}")


def from_prefix_exchange(pe):
    """The minimal initial machine inducing the prefix exchange."""
    targets = {}
    for leaf, k in zip(pe.domain, pe.bijection):
        b, v = pe.range_[k]
        targets[leaf] = (rooted_word(b, v), "id")
    rows = {"id": tuple(((i,), "id") for i in range(pe.n))}
    return minimize_initial(_tree_machine(pe.n, pe.r, targets, rows))


def _tree_machine(n, r, targets, rows):
    """The initial machine that reads each root's complete antichain of
    leaves (root, word) down the states ("t", root, prefix) from the
    initial state ("t",), outputting nothing, and leaves the cone of each
    leaf by the edge targets[root, word]; rows holds the rows of the
    states that the leaves enter, and the rows of the tree are added to
    it.  The cells are filled from a stack of (row, symbol, root, word)."""
    deepest = max(len(w) for _, w in targets)
    tree = {("t",): [None] * r}
    stack = [(tree[("t",)], a, a, EMPTY) for a in range(r)]
    while stack:
        row, i, a, w = stack.pop()
        if (a, w) in targets:
            row[i] = targets[a, w]
        elif len(w) >= deepest:
            raise InvalidInput("antichain gap")  # unreachable after validation
        else:
            row[i] = (EMPTY, ("t", a, w))
            tree[("t", a, w)] = below = [None] * n
            stack.extend((below, k, a, w + (k,)) for k in range(n))
    rows.update((q, tuple(row)) for q, row in tree.items())
    return InitialTransducer._from_rows(n, r, ("t",), rows)


# --- viable combinations ----------------------------------------------------


@dataclass
class ViableCombination:
    """Shifted state images tiling the whole space: prefixes[i].im(states[i])
    are pairwise disjoint with union everything."""

    prefixes: tuple
    states: tuple

    def __len__(self):
        return len(self.prefixes)

    def entries(self):
        return list(zip(self.prefixes, self.states))


def viable_combinations(T, max_prefix_depth=3, max_size=None, limit=None):
    """Exhaustive search for viable combinations within the given bounds;
    the first `limit` of them, or all when limit is None.

    Pieces are found in increasing order of their least point, so each
    combination is produced exactly once, entries sorted by least point.
    The list is drawn from the same lazy search that realization reads
    first-fit, so realize assembles from these combinations in this order."""
    return list(islice(_viable_search(T, max_prefix_depth, max_size), limit))


def _viable_search(T, max_prefix_depth, max_size):
    """The combinations of viable_combinations, generated lazily in its
    order, so that a caller that stops at one builds no other."""
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
    # in any tiling exactly one piece holds the least uncovered point, so
    # branching on that piece enumerates every combination exactly once;
    # frames [uncovered, chosen, its least point, next candidate] keep the
    # depth-first order of the branches without recursion
    whole = whole_space(T.n)
    stack = [[whole, (), whole.min_point(), 0]] if max_size > 0 else []
    while stack:
        frame = stack[-1]
        uncovered, chosen, low, j = frame
        while j < len(candidates):
            w, q, piece = candidates[j]
            j += 1
            if piece.contains_point(low) and piece.issubset(uncovered):
                break
        else:
            stack.pop()
            continue
        frame[3] = j
        rest, chosen = _minus(uncovered, piece), chosen + ((w, q),)
        if rest.is_empty():
            yield ViableCombination(*zip(*chosen))
        elif len(chosen) < max_size:
            stack.append([rest, chosen, rest.min_point(), 0])


def _minus(a, b):
    return a.intersection(b.complement())


class NotOrderable(RuntimeError):
    pass


_lex_key = cmp_to_key(lex_compare_evp)  # the exact order of infinite words


def reorder_lexicographic(T, v):
    """Sort the entries so each piece lies entirely below the next in the
    lexicographic order; fails if the pieces do not separate."""
    img = images(T)
    entries = sorted(v.entries(), key=lambda e: _lex_key(img[e[1]].shift(e[0]).min_point()))
    pieces = [img[q].shift(w) for w, q in entries]
    for a, b in zip(pieces, pieces[1:]):
        if lex_compare_evp(a.max_point(), b.min_point()) != LESS:
            raise NotOrderable("pieces do not separate lexicographically")
    return ViableCombination(
        tuple(w for w, _ in entries), tuple(q for _, q in entries)
    )


# --- realization over r roots ----------------------------------------------


class RealizeError(RuntimeError):
    pass


def state_wrapper(T, q, r, reversing=False):
    """Initial machine .a xi -> .a (xi)h_q (or .(r-1-a) (xi)h_q when
    reversing); needs q to be a homeomorphism state for the result to be a
    homeomorphism.  It is the tree machine whose leaves are the roots."""
    if r < 1:
        raise InvalidInput("need n >= 2 and r >= 1")
    targets = {(a, EMPTY): ((dot(r - 1 - a if reversing else a),), q) for a in range(r)}
    return _tree_machine(T.n, r, targets, dict(T._rows))


def reversing_complement_wrapper(n, r):
    """.a xi -> .(r-1-a) (xi with letters complemented); the r-rooted
    orientation-reversing carrier of the letter complement."""
    return state_wrapper(letter_complement(n), "0", r, reversing=True)


def _subdivide_last(n, antichain, times):
    out = list(antichain)
    for _ in range(times):
        a, w = out.pop()
        out.extend((a, w + (i,)) for i in range(n))
        out.sort()
    return out


def _assemble_blocks(T, v, r):
    """Initial machine sending block i of a complete r*j antichain onto root i
    via the viable combination's pieces, in order."""
    j = len(v)
    total = r * j
    if (total - r) % (T.n - 1) != 0:
        raise RealizeError("combination size incompatible with the root count")
    leaves = _subdivide_last(T.n, [(a, EMPTY) for a in range(r)], (total - r) // (T.n - 1))
    targets = {}
    for k, leaf in enumerate(leaves):
        i, a = divmod(k, j)
        targets[leaf] = (rooted_word(i, v.prefixes[a]), v.states[a])
    return _tree_machine(T.n, r, targets, dict(T._rows)), leaves


def _is_glue_pair(n, r, left, right):
    """True when the two points are the two sides of a circle gluing: same
    root w.a.(n-1)^w / w.(a+1).0^w, adjacent roots, or the wrap-around."""
    (b1, x1), (b2, x2) = left, right
    hi = EvPeriodicWord((), (n - 1,))
    lo = EvPeriodicWord((), (0,))
    if b1 == r - 1 and b2 == 0 and x1 == hi and x2 == lo:
        return True  # wrap-around, which for r=1 shares the root
    if b1 == b2:
        if x1 == x2:
            return False
        k = first_difference(x1, x2)
        if x2.letter(k) != x1.letter(k) + 1:
            return False
        want1 = EvPeriodicWord(x1.prefix(k + 1), (n - 1,))
        want2 = EvPeriodicWord(x2.prefix(k + 1), (0,))
        return x1 == want1 and x2 == want2
    if b2 == b1 + 1:
        return x1 == hi and x2 == lo
    return False


def _check_circle_map(A, leaves):
    """The assembled map must send circle gluings to circle gluings: check the
    image of every adjacent leaf boundary, including the wrap-around."""
    n, r = A.n, A.r
    hi = EvPeriodicWord((), (n - 1,))
    lo = EvPeriodicWord((), (0,))
    for (a1, w1), (a2, w2) in zip(leaves, leaves[1:] + [leaves[0]]):
        left = evaluate_periodic_initial(A, a1, hi.with_prefix(w1))
        right = evaluate_periodic_initial(A, a2, lo.with_prefix(w2))
        if not _is_glue_pair(n, r, left, right):
            return False
    return True


def realize(T, r, ordered=True, max_prefix_depth=3, max_size=None):
    """An initial machine over r roots whose long-run behaviour (core) is the
    given core machine T; with ordered=True the machine also respects the
    circle structure.  Membership at r is checked first.

    Uses the homeomorphism-state shortcut when available, otherwise assembles
    blocks from a lexicographic viable combination; orientation-reversing
    elements are realized through the letter-complement carrier."""
    from .signature import CONGRUENCE_FAILS, membership_failure, record_valid
    from . import group

    reason = membership_failure(T, r, ordered)
    if reason is not None:
        if reason == CONGRUENCE_FAILS:
            reason += " at this root count"
        raise RealizeError(f"element is not realizable over {r} roots: {reason}")

    want = record_valid(group.canonical_core(T))  # membership validated T
    if ordered and orientation(T) is Orientation.REVERSING:
        # the partner T . (letter complement) preserves the order and, a
        # product of valid elements, is a valid member at r.  The product is
        # rooted at the first state of each factor: T enters canonical.  The
        # letter complement is a known valid element, so it carries its
        # verdict unchecked.
        flip = group.GroupElement(record_valid(group.canonical_core(letter_complement(T.n))))
        partner = group.group_product(group.GroupElement(want), flip).machine
        raw = _construct(partner, r, True, max_prefix_depth, max_size)
        raw = product_initial(raw, reversing_complement_wrapper(T.n, r))
    else:
        raw = _construct(T, r, ordered, max_prefix_depth, max_size)
    out = minimize_initial(raw)
    _verify_realization(out, want)
    return out


def _construct(T, r, ordered, max_prefix_depth, max_size):
    """The unminimized initial machine over r roots with core T that realize
    builds for a valid member T that is not reversing: a homeomorphism-state
    wrapper when one fits, else blocks assembled from a (lexicographic)
    viable combination.  Realization is first fit: the search runs lazily
    and stops at the first of at most 8 combinations that assembles, so the
    result is the one that building all 8 first would give."""
    img = images(T)
    for q in T.states:
        # membership validated T, so every state is injective
        if img[q].is_whole():
            raw = state_wrapper(T, q, r)
            if not ordered or _check_circle_map(raw, [(a, EMPTY) for a in range(r)]):
                return raw

    errors = []
    for combo in islice(_viable_search(T, max_prefix_depth, max_size), 8):
        v = reorder_lexicographic(T, combo) if ordered else combo
        raw, leaves = _assemble_blocks(T, v, r)
        if ordered and not _check_circle_map(raw, leaves):
            errors.append("assembled map broke a circle gluing")
            continue
        return raw
    if not errors:
        raise RealizeError(
            f"no viable combination within depth {max_prefix_depth}, size {max_size}"
        )
    raise RealizeError("; ".join(errors))


def _verify_realization(A, want):
    """Check the machine A built for an element whose canonical core is
    `want`: a homeomorphism with that core and bi-synchronizing.  A is
    marked minimal (minimize_initial), so canonical_core takes its core as
    it is.  The bi-synchronization check keeps A's inverse in A's memo."""
    from . import group
    from .invert import bisynchronizing_failure_initial

    if not is_homeomorphism_state(A, A.root):
        raise RealizeError("constructed machine is not a homeomorphism")
    if group.canonical_core(A) != want:
        raise RealizeError("constructed machine has the wrong core")
    if bisynchronizing_failure_initial(A) is not None:
        raise RealizeError("constructed machine is not bi-synchronizing")
