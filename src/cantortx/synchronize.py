"""Synchronization: the collapsing procedure, minimal synchronizing level,
and core extraction.

A machine is synchronizing when some length k exists with the property that
the end state after reading any length-k word is independent of the start
state.  Equivalently the underlying automaton collapses to a single state
under repeated merging of states with identical transition rows.
"""

from __future__ import annotations

from .transducer import Transducer, restrict
from .initial import InitialTransducer, underlying_interior


class NotSynchronizing(ValueError):
    pass


class Automaton:
    """Transition-only view: states plus a row of destinations per state."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        self.rows = dict(rows)  # state -> tuple of destinations

    def __eq__(self, other):
        return isinstance(other, Automaton) and (self.n, self.rows) == (other.n, other.rows)

    def __repr__(self):
        return f"<Automaton n={self.n} states={len(self.rows)}>"

    @property
    def states(self):
        return tuple(self.rows)


def automaton_of(T):
    if isinstance(T, InitialTransducer):
        T = underlying_interior(T)
    return Automaton(T.n, {q: tuple(p for _, p in T.row(q)) for q in T.states})


def collapse(A):
    """One collapsing step: merge states whose transition rows agree."""
    if isinstance(A, (Transducer, InitialTransducer)):
        A = automaton_of(A)
    cls = {}
    group = {}
    for q, row in A.rows.items():
        group[q] = cls.setdefault(row, len(cls))
    rows = {}
    for q, row in A.rows.items():
        rows.setdefault(group[q], tuple(group[p] for p in row))
    return Automaton(A.n, rows)


def collapse_fixpoint(A):
    if isinstance(A, (Transducer, InitialTransducer)):
        A = automaton_of(A)
    while True:
        B = collapse(A)
        if len(B.rows) == len(A.rows):
            return A
        A = B


def is_synchronizing(T):
    return len(collapse_fixpoint(T).rows) == 1


def subset_counts(T):
    """One pass over the subset images of the full state set: push a count of
    words per subset through the letters until every subset is one state.

    Returns (level, counts, rows): the minimal sync level; for each forced
    state the number of words of that length that force it; and the
    one-letter successors of every subset met before that level, enough to
    replay the walk of any word.  The machine must be synchronizing."""
    if not is_synchronizing(T):
        raise NotSynchronizing("machine is not synchronizing")
    A = automaton_of(T)
    rows = {}
    family = {frozenset(A.states): 1}
    level = 0
    while any(len(S) > 1 for S in family):
        nxt = {}
        for S, count in family.items():
            row = rows.get(S)
            if row is None:
                row = rows[S] = tuple(
                    frozenset(A.rows[q][i] for q in S) for i in range(A.n)
                )
            for C in row:
                nxt[C] = nxt.get(C, 0) + count
        family = nxt
        level += 1
    return level, {next(iter(S)): count for S, count in family.items()}, rows


def minimal_sync_level(T):
    """Least k such that every length-k word forces the end state."""
    return subset_counts(T)[0]


def forced_state(T, word):
    """The state forced by `word`, which must be at least the sync level long."""
    A = automaton_of(T)
    S = set(A.states)
    for i in word:
        S = {A.rows[q][i] for q in S}
    if len(S) != 1:
        raise NotSynchronizing("word does not force a unique state")
    return next(iter(S))


def core_states(T):
    """States forced by words of the minimal synchronizing length."""
    return set(subset_counts(T)[1])


def core(T):
    """The sub-transducer on the forced states; strongly connected and equal
    to its own core.  For an initial machine the forced states are taken
    among the states reachable from the initial state (the interior)."""
    if isinstance(T, InitialTransducer):
        M = underlying_interior(T)
        return restrict(M, sorted(core_states(M), key=str))
    return restrict(T, sorted(core_states(T), key=str))
