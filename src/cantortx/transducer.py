"""Finite letter-to-word transducers over {0..n-1}.

A transducer here is total: every (state, letter) pair has a transition and an
output word over the same alphabet.  A machine is *productive* when no
reachable cycle outputs the empty word all the way around, which is exactly
the condition that every infinite input produces an infinite output.  All
behavioural operations (common output prefixes, omega-equivalence, rooted
minimization) assume productivity and check it.
"""

from __future__ import annotations

import heapq
import math
from functools import partial

from .words import (
    EvPeriodicWord,
    InvalidInput,
    check_letters,
    first_difference,
    subtract_prefix,
)


class DegenerateTransducer(ValueError):
    """A reachable cycle outputs the empty word: some infinite input would
    produce a finite output."""


class DepthExceeded(RuntimeError):
    """A state's forced output is infinite: its state map is constant, every
    input having the same output."""


def checked_row(q, row, size, check):
    """State q's row {symbol index 0..size-1: (output, destination)} as the
    tuple of its cells, each output made a tuple and checked by check."""
    if set(row) != set(range(size)):
        raise InvalidInput(f"state {q!r} must have one transition per letter")
    cells = [None] * size
    for i, (w, p) in row.items():
        w = tuple(w)
        check(w)
        cells[i] = (w, p)
    return tuple(cells)


def _plain(machine, what):
    """machine, if it is plain: the analysis `what` reads only plain ones."""
    if not isinstance(machine, Transducer):
        raise InvalidInput(f"{what} needs a plain machine (r=0)")
    return machine


class Machine:
    """The row store of plain (Transducer) and initial (InitialTransducer)
    machines: `_rows` maps each state to its row, the tuple of (output word,
    destination) indexed by input symbol, so a loop over a state's symbols
    reads one row.  Each kind says which symbols a row reads (symbols_at,
    step) and what besides the rows tells two machines apart (_key).
    `_memo` keeps the analyses of the machine that `memoized` computed."""

    __slots__ = ("n", "states", "_rows", "_hash", "_memo")

    def _set_rows(self, n, rows):
        self.n, self.states, self._rows = n, tuple(rows), rows
        self._hash = self._memo = None

    def row(self, q):
        """The (output, destination) cells of state q, one per symbols_at(q)."""
        try:
            return self._rows[q]
        except KeyError:
            raise InvalidInput(f"no transitions for state {q!r}") from None

    def output(self, q, sym):
        return self.step(q, sym)[0]

    def dest(self, q, sym):
        return self.step(q, sym)[1]

    def __eq__(self, other):
        return (type(other) is type(self) and self._key() == other._key()
                and self._rows == other._rows)

    def __hash__(self):
        # the rows in any order, as __eq__ compares them; computed once
        if self._hash is None:
            self._hash = hash((self._key(), frozenset(self._rows.items())))
        return self._hash


class Transducer(Machine):
    """Immutable-by-convention plain machine: `table` maps state -> letter ->
    (output word, destination state), and every row is indexed by letter.
    State names are arbitrary hashables; canonical ones are "0", "1", ..."""

    __slots__ = ()

    def __init__(self, n, table):
        if n < 2:
            raise InvalidInput("alphabet must have at least 2 letters")
        check = partial(check_letters, n)
        rows = {q: checked_row(q, row, n, check) for q, row in table.items()}
        for q, row in rows.items():
            for i, (_, p) in enumerate(row):
                if p not in rows:
                    raise InvalidInput(f"transition {q!r},{i} targets unknown state {p!r}")
        self._set_rows(n, rows)

    @classmethod
    def _from_rows(cls, n, rows):
        """The machine with rows {state: ((out_0, dest_0), ...)}, taken as
        they are: for tables the library builds from valid machines, which
        need none of the constructor's checks."""
        T = cls.__new__(cls)
        T._set_rows(n, rows)
        return T

    def _key(self):
        return self.n

    def step(self, q, i):
        """One letter: (output word, destination)."""
        check_letters(self.n, (i,))
        row = self._rows.get(q)
        if row is None:
            raise InvalidInput(f"no transition for state {q!r} on letter {i}")
        return row[i]

    def symbols_at(self, q):
        """The input symbols of state q, in row order: the letters."""
        return range(self.n)

    def __repr__(self):
        return f"<Transducer n={self.n} states={len(self.states)}>"

    def rows(self):
        for q in self.states:
            for i, (w, p) in enumerate(self._rows[q]):
                yield q, i, w, p


def memoized(M, key, compute):
    """The analysis `key` of the plain or initial machine M: compute() on
    the first call, read from M's memo after that.  Only pure analyses whose
    results no caller mutates are kept there, keyed by every argument that
    shapes them; an exception is not kept.  No kept value refers to M, so a
    dropped machine frees its memo without a garbage collection."""
    memo = M._memo
    if memo is None:
        memo = M._memo = {}
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# What a builder proves about the machine it makes, recorded by mark and
# read by marked alone; the proofs are in the docstrings named.
# - MINIMAL: minimize_rooted (its docstring) and minimize_initial; read by
#   canonical_core and minimize_initial, which reduce it no further.
# - COMPLETE_RESPONSE: inverse_closure and invert_initial (the invert
#   module docstring); canonical_core and minimize_initial merge its rows
#   with no forced-output pass.
# - SYNCHRONIZING: group_product (its docstring), and inverse_core on the
#   closure of a machine with a passing verdict (the invert module
#   docstring); is_synchronizing and core_states then collapse nothing.
# - VALID, the passing verdict of signature.validation_failure: group_product,
#   invert_element and realize, on products and inverses of valid elements
#   (BCMNO's group law).  It records SYNCHRONIZING and no non-injective
#   state too, for loop_state, signatures, orientation and inverses.
MINIMAL = "minimal"
COMPLETE_RESPONSE = "complete_response"
SYNCHRONIZING = "synchronizing"
VALID = "validation"


def mark(M, *facts):
    """M, with the facts recorded in its memo unchecked, for the builder
    that proves them of M.  It only adds: an entry the memo holds stays."""
    for fact in facts:
        if fact == VALID:
            memoized(M, VALID, lambda: None)
            memoized(M, SYNCHRONIZING, lambda: True)
            memoized(M, "non_injective_states", list)
        else:
            memoized(M, fact, lambda: True)
    return M


def marked(M, fact):
    """Does M's memo hold the fact?  For VALID, a passing verdict that
    validation computed counts too."""
    memo = M._memo or {}
    return fact in memo and (fact != VALID or memo[VALID] is None)


def evaluate(M, q, w):
    """Run the word w from state q of a plain or initial machine M:
    (accumulated output, end state).  No edge enters the initial state, so
    only the first symbol can be a root symbol .a; step checks the state
    and that symbol, check_letters the rest, and the rows are read
    unchecked."""
    if not w:
        return (), q
    piece, q = M.step(q, w[0])
    rest = w[1:]
    check_letters(M.n, rest)
    rows = M._rows
    out = list(piece)
    for i in rest:
        piece, q = rows[q][i]
        out.extend(piece)
    return tuple(out), q


def check_productive(T, states=None):
    """Raise DegenerateTransducer if some cycle outputs the empty word.

    The empty-output edges form a subgraph; an empty-output cycle exists iff
    that subgraph has a cycle."""
    pool = T.states if states is None else tuple(states)
    colors = dict.fromkeys(pool, 0)  # 0 new, 1 in progress, 2 done
    for start in pool:
        if colors[start]:
            continue
        stack = [(start, 0)]
        colors[start] = 1
        while stack:
            q, i = stack[-1]
            if i == T.n:
                colors[q] = 2
                stack.pop()
                continue
            stack[-1] = (q, i + 1)
            w, p = T._rows[q][i]
            if w or p not in colors:
                continue
            if colors[p] == 1:
                raise DegenerateTransducer(
                    f"cycle through state {p!r} outputs the empty word"
                )
            if colors[p] == 0:
                colors[p] = 1
                stack.append((p, 0))


def bfs_numbering(rows, roots):
    """{state: index} of the states of rows {state: row} reachable from the
    roots, numbered breadth-first with letters ascending; the dict iterates
    in that order."""
    order = list(dict.fromkeys(roots))
    names = {q: k for k, q in enumerate(order)}
    for q in order:  # grows while it is read
        for _, p in rows[q]:
            if p not in names:
                names[p] = len(order)
                order.append(p)
    return names


def least_numbering(rows):
    """The bfs_numbering of rows {state: row} from the start whose renamed
    table, the rows in numbering order with every destination replaced by
    its index, is least; every state must be reachable from every start, as
    in a core.  The numberings from all starts run in step, one row at a
    time, and only the starts whose renamed rows so far are least go on:
    every table has one row of n cells per state, so comparing the tables
    row by row is comparing them whole.  Among starts with equal tables the
    first in rows' order wins."""
    runs = [({q: 0}, [q]) for q in rows]
    k = 0
    while len(runs) > 1 and k < len(rows):
        keyed = []
        for names, order in runs:
            row = rows[order[k]]
            for _, p in row:
                if p not in names:
                    names[p] = len(order)
                    order.append(p)
            keyed.append((tuple((w, names[p]) for w, p in row), names, order))
        least = min(key for key, _, _ in keyed)
        runs = [(names, order) for key, names, order in keyed if key == least]
        k += 1
    return bfs_numbering(rows, runs[0][1][:1])


def renamed_rows(rows, names):
    """The rows of the states in names {state: index}, in the order of
    names, with every state renamed str(index)."""
    return {
        str(k): tuple((w, str(names[p])) for w, p in rows[q]) for q, k in names.items()
    }


def reachable(T, roots):
    """States reachable from the given roots, BFS order, letters ascending."""
    return list(bfs_numbering(T._rows, roots))


def restrict(T, states):
    """Sub-transducer on a transition-closed subset of states."""
    states = list(states)
    keep = set(states)
    rows = {}
    for q in states:
        row = T.row(q)
        for _, p in row:
            if p not in keep:
                raise InvalidInput(f"state set not closed: {q!r} -> {p!r}")
        rows[q] = row
    return Transducer._from_rows(T.n, rows)


def relabel(T, mapping):
    return Transducer._from_rows(
        T.n,
        {
            mapping[q]: tuple((w, mapping[p]) for w, p in row)
            for q, row in T._rows.items()
        },
    )


def product(A, B):
    """The composite machine: input runs through A, A's output through B.

    States are pairs (a, b); the behaviour at (a, b) is h_b after h_a.
    Every pair gets a row, so the work is |A|·|B| rows of n letters, also
    for a caller such as group_product that reads only the pairs reachable
    from one root."""
    if A.n != B.n:
        raise InvalidInput("product of transducers over different alphabets")
    brows = B._rows
    rows = {}
    for a, arow in A._rows.items():
        for b in B.states:
            row = []
            for w, a2 in arow:
                # evaluate(B, b, w) without its checks: A's outputs are
                # letters, and b is a state of B
                out = []
                b2 = b
                for i in w:
                    piece, b2 = brows[b2][i]
                    out.extend(piece)
                row.append((tuple(out), (a2, b2)))
            rows[(a, b)] = tuple(row)
    return Transducer._from_rows(A.n, rows)


def pump_period(M, head, q, per):
    """Pump the period word `per` from state q of the plain or initial
    machine M until the state repeats at a period boundary: (head followed
    by the output before the cycle, the output around the cycle)."""
    seen = {q: 0}
    chunks = []
    while True:
        piece, q = evaluate(M, q, per)
        chunks.append(piece)
        if q in seen:
            break
        seen[q] = len(chunks)
    start = seen[q]
    return head + sum(chunks[:start], ()), sum(chunks[start:], ())


def evaluate_periodic(T, q, x):
    """The image of the eventually periodic point x under the state map of q,
    again as an eventually periodic point.

    Runs the preperiod, then pumps the period until the machine state repeats
    at a period boundary."""
    head, s = evaluate(T, q, x.pre)
    pre, per = pump_period(T, head, s, x.per)
    if not per:
        raise DegenerateTransducer(
            "state map produces a finite output on an infinite input"
        )
    return EvPeriodicWord(pre, per)


def _letter_outputs(rows, pool, a):
    """{q: the output of a^omega from q} for the letter a, over a productive
    pool closed under letter a.  The letter-a edges send each state to one
    successor, so every walk ends on a cycle, and each state is walked to
    and valued once, O(|pool|) steps in all, where pumping a^omega from
    every state would take O(|pool|^2): a new cycle's output is read once
    and rotated to each of its states, and a state off the cycles prefixes
    its letter-a output to its successor's word.  Each word is the exact
    output of a^omega, in canonical form.  Forced outputs read letter 0
    (common_prefixes), and the orientation letters 0 and n-1."""
    x = {}
    for q in pool:
        path = {}  # the states of this walk not yet valued, in order
        while q not in x and q not in path:
            path[q] = None
            q = rows[q][a][1]
        path = list(path)
        if q not in x:  # the walk closed a new cycle, path[k:]
            k = path.index(q)
            per = sum((rows[s][a][0] for s in path[k:]), ())
            for s in path[k:]:
                x[s] = EvPeriodicWord((), per)
                w = rows[s][a][0]
                per = per[len(w):] + w
            del path[k:]
        for s in reversed(path):
            w, p = rows[s][a]
            x[s] = x[p].with_prefix(w)
    return x


def _edge_difference(w, y, x):
    """first_difference(w . y, x) for a finite word w: w is compared with
    the first |w| letters of x, and y with x past them only when w is a
    prefix of x."""
    for k, a in enumerate(w):
        if a != x.letter(k):
            return k
    return len(w) + first_difference(y, x.drop(len(w)))


def common_prefixes(T, states=None):
    """For each state q, the greatest common prefix c(q) of all infinite
    outputs from q (the forced output), over the states of T or of the given
    transition-closed subset, in that order.

    Let x_q be the output of 0^omega from q, an eventually periodic word.
    As x_q is one output from q, c(q) is the first l(q) letters of x_q,
    where l(q) is the least lcp(y, x_q) over the outputs y from q.  Every
    output from q is w_i . y' for a letter i with output w_i to p_i and an
    output y' from p_i, and w_i . x_{p_i} is one of them; so by the
    ultrametric inequality
        l(q) = min over i of min(d_i(q), |w_i| + l(p_i)),
    where d_i(q) is the first index at which w_i . x_{p_i} and x_q differ
    (infinite when they are equal).  Productivity makes every cycle output
    at least one letter, so this system has exactly one solution: l(q) is
    the least, over paths q -> p, of the output length along the path plus
    min_i d_i(p), a multi-source shortest path on the reversed graph with
    edge weights |w_i|, found by Dijkstra's algorithm.  No length bound is
    involved.  An infinite l(q) means that every input from q has the
    output x_q, and that raises DepthExceeded naming q.
    """
    pool = T.states if states is None else tuple(states)
    check_productive(T, pool)
    rows = T._rows
    x = _letter_outputs(rows, pool, 0)
    index = {q: k for k, q in enumerate(pool)}
    preds = [[] for _ in pool]
    for q in pool:
        for w, p in rows[q]:
            preds[index[p]].append((len(w), index[q]))
    # letter 0 gives x_q itself, so its d is infinite
    dist = [min(_edge_difference(w, x[p], x[q]) for w, p in rows[q][1:]) for q in pool]
    heap = [(d, k) for k, d in enumerate(dist) if d < math.inf]
    heapq.heapify(heap)
    while heap:
        d, k = heapq.heappop(heap)
        if d == dist[k]:
            for weight, j in preds[k]:
                if d + weight < dist[j]:
                    dist[j] = d + weight
                    heapq.heappush(heap, (d + weight, j))
    if math.inf in dist:
        q = pool[dist.index(math.inf)]
        raise DepthExceeded(f"state {q!r} maps every input to one point, "
                            "so its forced output is infinite")
    return {q: x[q].prefix(d) for q, d in zip(pool, dist)}


def strip_rows(rows, c):
    """The rows {state: row} with every state's forced output c[state]
    pushed upstream: the output w to p at q becomes c[q]^-1 . w . c[p]."""
    return {
        q: tuple((subtract_prefix(c[q], w + c[p]), p) for w, p in row)
        for q, row in rows.items()
    }


def partition_rows(rows):
    """Coarsest partition of the states of rows {state: row}, every
    destination among them, in which states of one block have equal letter
    outputs and successors in one block, letter by letter (Moore's
    refinement).  Returns {state: block index}, blocks numbered in order of
    their first state."""
    dests = {q: tuple(p for _, p in row) for q, row in rows.items()}
    block = {}
    keys = {}
    for q, row in rows.items():
        key = tuple(w for w, _ in row)
        block[q] = keys.setdefault(key, len(keys))
    while True:
        keys = {}
        new = {}
        for q, ds in dests.items():
            key = (block[q], tuple(map(block.__getitem__, ds)))
            new[q] = keys.setdefault(key, len(keys))
        if new == block:
            return block
        block = new


def quotient_rows(rows, part):
    """The rows of the blocks of part {state: block}: each block takes the
    row of its first state, with destinations replaced by their blocks."""
    out = {}
    for q, row in rows.items():
        b = part[q]
        if b not in out:
            out[b] = tuple((w, part[p]) for w, p in row)
    return out


def merged_rows(rows, c):
    """The reduction of rows {state: row}, every destination among them,
    with forced outputs c {state: word}: every forced output is pushed
    upstream (strip_rows), and equivalent states are merged
    (partition_rows, quotient_rows).  Returns (part, blocks): part maps each
    state to its block, blocks maps each block to its row.  c None says
    that every forced output is empty, as at the states of a machine marked
    complete_response: there is nothing to push, so the rows are merged as
    they are."""
    if c is not None:
        rows = strip_rows(rows, c)
    part = partition_rows(rows)
    return part, quotient_rows(rows, part)


def minimal_rows(rows, c, start, entry=None):
    """The merged_rows blocks of rows with forced outputs c, numbered
    breadth-first from the block of the state start and renamed "0", "1",
    ... (renamed_rows).  Given an entry row, the numbering starts at that
    row instead: a fresh state, which no edge enters, whose outputs w to p
    stay whole, w . c[p].  It stays out of the partition, as it merges with
    no stripped state: either it reads other symbols (the entry row of an
    initial machine), or its forced output is nonempty (a rooted behaviour
    with a forced output), where every stripped state's is empty.  c None
    says that every forced output is empty (merged_rows)."""
    part, blocks = merged_rows(rows, c)
    if entry is not None:
        start = None  # no block index
        blocks[None] = tuple((w if c is None else w + c[p], part[p]) for w, p in entry)
    else:
        start = part[start]
    return renamed_rows(blocks, bfs_numbering(blocks, [start]))


def omega_equivalent(T, q1, q2):
    """True iff the two states induce the same map on infinite words."""
    c = common_prefixes(T)
    if c[q1] != c[q2]:
        return False
    part, _ = merged_rows(T._rows, c)
    return part[q1] == part[q2]


def minimize_rooted(T, root):
    """The canonical minimal machine of the rooted behaviour h_root:
    accessible, complete response, no omega-equivalent pair, states renamed
    "0", "1", ... in breadth-first order from the root with letters ascending.
    Returns (machine, root name); two rooted machines with equal behaviour
    produce structurally identical results.

    The states reachable from the root are reduced by minimal_rows.  A root
    whose forced output is empty is numbered as its block; otherwise the
    root's row enters the machine as a fresh entry state that keeps the
    whole forced output, and the root's own state stays inside as one
    stripped state among the others.  The machine is marked MINIMAL: no two
    of its states are omega-equivalent, and every state but a fresh entry
    state has complete response."""
    pool = reachable(T, [root])
    c = common_prefixes(T, states=pool)
    rows = {q: T._rows[q] for q in pool}
    entry = T._rows[root] if c[root] else None
    M = Transducer._from_rows(T.n, minimal_rows(rows, c, root, entry))
    return mark(M, MINIMAL), "0"
