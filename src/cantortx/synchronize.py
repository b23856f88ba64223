"""Synchronization: the counted collapse, minimal synchronizing level, word
counts per forced state, core extraction, and the canonical core.

A machine is synchronizing when some length k exists with the property that
the end state after reading any length-k word is independent of the start
state; the least such k is the minimal synchronizing level.  Only the
destinations matter, so every routine here reads the rows
{state: destination per letter} (of the interior, the non-initial states,
for an initial machine).  The core of an initial machine is a plain
machine on its own rows: every forced state lies on a cycle, and the
pending region before the output root has none, so no core row outputs a
root marker.

The counted collapse merges states whose destination rows agree, then
repeats on the quotient, counting its rounds.  Two facts make it exact:

- After round j, two states are merged exactly when p.w = q.w for every
  word w of length j (by induction: p and q merge in round j+1 exactly when
  p.i and q.i were merged after round j for every letter i).  So the machine
  synchronizes exactly when one state is left; the number of rounds until
  then is the minimal synchronizing level; a round that merges nothing
  leaves the relation fixed, so the machine does not synchronize; and since
  every other round removes a state, the level is at most |Q| - 1.
- Every word of length `level` sends every start state to the same end
  state.  So the forced states are the states reachable from f = s.u, for
  any start s and any word u of length `level`: f.w = s.uw is forced by the
  last `level` letters of uw, and a forced state p = s.v is f.v.  They are
  found in O(level + |Q| * n).  The number of words of that length that
  force a state q is the number of paths of that length from any one fixed
  start state to q; the signatures push these counts one letter at a time
  in O(level * |Q| * n).
- Every state q on a cycle of a synchronizing machine is forced: when the
  cycle reads u from q back to q, q = q.u^k is the state that u^k forces
  once |u^k| >= level, and so the state that the last `level` letters of
  u^k force.  So on a machine known to synchronize, the forced states are
  the states reachable from the first repeated state of the letter-0 walk
  from any state, found in O(|Q| * n) with no collapse.  A machine is
  known to synchronize when its builder marks it so (mark_synchronizing):
  group_product marks its minimized product, and inverse_core the inverse
  closure of a machine that holds a passing verdict; the docstrings of
  group_product and of the invert module prove that these synchronize.
  An unmarked machine is collapsed, which also decides whether it
  synchronizes.

A round of the collapse rehashes only the quotient states with a successor
merged away in the round before; the others keep their rows, which stay
pairwise distinct.  A state merges away once, and then the rows of its
predecessors in the quotient are rehashed, so the work follows the edges
into merged states instead of rehashing all |Q| rows in each of the
`level` rounds.

The destination rows, the level and the counts are memoized on the
machine, so the collapse, the counts, the core and the signature of one
machine read one table of rows.
"""

from __future__ import annotations

from .transducer import (
    Transducer,
    common_prefixes,
    least_numbering,
    memoized,
    merged_rows,
    renamed_rows,
    restrict,
)
from .initial import InitialTransducer


class NotSynchronizing(ValueError):
    pass


def _destination_rows(T):
    """{state: its destination per letter} of T, of its interior for an
    initial machine; memoized on T."""
    return memoized(T, "destination_rows", lambda: _destinations(T))


def _destinations(T):
    states = T.states[1:] if isinstance(T, InitialTransducer) else T.states
    return {q: tuple(p for _, p in T._rows[q]) for q in states}


def _collapse_rounds(rows):
    """Rounds of the counted collapse of `rows` until one state is left:
    the minimal synchronizing level, or None when a round merges nothing
    (or there is no state at all).

    `rows` holds the row of each class of the quotient, named by one of its
    states, and `table` maps every row to its class.  Round one hashes every
    row; a later round rehashes only the classes with a successor merged
    away in the round before (`moved` maps those to the classes they merged
    into), renaming that successor.  The rows of the other classes are
    unchanged and pairwise distinct, so they merge with nothing among
    themselves.  A rehashed row's old entry stays in the table: it names a
    class merged away, which no row names again.  A round's merges rename
    nothing before the next round."""
    if len(rows) <= 1:
        return 0 if rows else None
    preds = {q: [] for q in rows}
    for q, row in rows.items():
        for p in row:
            preds[p].append(q)
    rows = dict(rows)
    table = {}
    moved = {}
    for q, row in rows.items():
        keeper = table.setdefault(row, q)
        if keeper != q:
            moved[q] = keeper
    level = 0
    while moved:
        level += 1
        pending = set()
        for c, keeper in moved.items():
            del rows[c]
            pending.update(preds[c])
            preds[keeper] += preds.pop(c)
        if len(rows) == 1:
            return level
        pending.intersection_update(rows)
        merged = {}
        for c in pending:
            row = rows[c] = tuple(moved.get(p, p) for p in rows[c])
            keeper = table.setdefault(row, c)
            if keeper != c:
                merged[c] = keeper
        moved = merged
    return None


def _sync_level(T):
    """The minimal synchronizing level of T, or None when T does not
    synchronize."""
    return memoized(T, "sync_level", lambda: _collapse_rounds(_destination_rows(T)))


def sync_counts(T):
    """(level, counts): the minimal synchronizing level, and for each forced
    state the number of words of that length that force it.  Raises
    NotSynchronizing."""
    return memoized(T, "sync_counts", lambda: _counts(T))


def _counts(T):
    level = _sync_level(T)
    if level is None:
        raise NotSynchronizing("machine is not synchronizing")
    rows = _destination_rows(T)
    counts = {next(iter(rows)): 1}
    for _ in range(level):
        nxt = {}
        for q, count in counts.items():
            for p in rows[q]:
                nxt[p] = nxt.get(p, 0) + count
        counts = nxt
    return level, counts


def is_synchronizing(T):
    return _sync_level(T) is not None


def minimal_sync_level(T):
    """Least k such that every length-k word forces the end state."""
    level = _sync_level(T)
    if level is None:
        raise NotSynchronizing("machine is not synchronizing")
    return level


def core_states(T):
    """States forced by words of the minimal synchronizing length: the
    states reachable from the end state of one such word.  On a machine
    marked synchronizing in its memo, the states reachable from the first
    repeated state of the letter-0 walk from the first state, with no
    collapse (see the module docstring)."""
    rows = _destination_rows(T)
    if T._memo is not None and "synchronizing" in T._memo:
        q = next(iter(rows))
        walked = set()
        while q not in walked:
            walked.add(q)
            q = rows[q][0]
    else:
        level = _sync_level(T)
        if level is None:
            raise NotSynchronizing("machine is not synchronizing")
        q = next(iter(rows))
        for _ in range(level):
            q = rows[q][0]
    seen = {q}
    stack = [q]
    while stack:
        for p in rows[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def mark_synchronizing(M):
    """M, marked synchronizing in its memo, for a builder that proves that M
    synchronizes: core_states then reads its core with no collapse."""
    memoized(M, "synchronizing", lambda: True)
    return M


def core(T):
    """The sub-transducer on the forced states; strongly connected and equal
    to its own core.  For an initial machine the forced states are taken
    among its interior, and their rows are plain rows (see the module
    docstring)."""
    return restrict(T, sorted(core_states(T), key=str))


def canonical_core(T):
    """Canonical machine of a synchronizing T's long-run behaviour: take the
    core, push forced output prefixes upstream and merge equivalent states
    (merged_rows), then relabel by the breadth-first numbering from the
    start state whose renamed table is least (core machines have no
    distinguished root).  The numberings from all starts run in step and
    stop at the first row where one start is least, so a core whose starts
    differ in their first rows is numbered in O(|Q|·n).  The core of a
    machine marked minimal, as minimize_rooted and minimize_initial mark
    theirs, is minimal already: its states have complete response and no
    two are equivalent, so it is not reduced again.  The states of a
    machine marked complete_response, as inverse_closure marks its closure,
    have empty forced outputs, so its core is merged with no forced-output
    pass.  The core of a machine marked synchronizing is found with no
    collapse (core_states); an unmarked machine that does not synchronize
    raises NotSynchronizing."""
    C = core(T)
    rows = C._rows
    memo = T._memo or {}
    if "minimal" not in memo:
        c = None if "complete_response" in memo else common_prefixes(C)
        rows = merged_rows(rows, c)[1]
    names = least_numbering(rows)
    return Transducer._from_rows(C.n, renamed_rows(rows, {q: names[q] for q in rows}))
