"""Inversion: the preimage-prefix map L, inverses of initial machines, the
rooted inverse closure for core machines, and bi-synchronization.

The inverse of a machine is built from states (w, q): "the forward machine
sits at q and owes the output cone w".  Reading a letter i, the inverse emits
the greatest common prefix v of all forward inputs whose output lies in the
cone w.i, and moves to (w.i minus the forward output on v, forward state on
v).  Every state used here satisfies U_w inside im(q) and (w)L_q empty, which
keeps the subtraction well defined and the machine total.

The preimage prefix (v)L_q is a search memoized on (state, rest of the cone):
each pair is solved once, so one search costs at most |Q| x (|v|+1) pairs
and needs no node budget.  The inverse closures share one memo over all
their preimage searches and drop it on return."""

from __future__ import annotations

from .words import EMPTY, InvalidInput, gcp, subtract_prefix
from .transducer import DegenerateTransducer, Transducer, evaluate
from .initial import InitialTransducer, dot, minimize_initial
from .images import images, is_homeomorphism_initial
from .synchronize import is_synchronizing


class EmptyPreimage(ValueError):
    """The requested cone misses the state's image."""


class StateExplosion(RuntimeError):
    """The inverse closure exceeded its configured state cap."""


_OPEN = object()  # memo mark of a subproblem whose search is under way
_NEW = object()  # memo lookup default of a subproblem not met yet


def _preimage_search(moves, memo, q, v):
    """The gcp of the inputs from q whose output lies in the cone v, or None
    when there is no such input.  `moves[p]` lists (symbol, output, output
    length, destination) at state p; `memo` maps (state, rest of the cone)
    to its answer and keeps every subproblem solved here.

    A symbol whose output covers the rest of the cone contributes its
    one-symbol cone; a symbol whose output is a proper prefix of it
    contributes itself followed by the answer at (destination, what is
    left).  The gcp of the contributions is the answer, so a subproblem
    stops at the first symbol that makes it empty.  The search keeps its own
    stack, so long cones need no recursion; a subproblem met again while it
    is still open lies on an empty-output cycle."""
    top = (q, v)
    stack = []  # frames [(state, rest of the cone), next move, answer so far]
    if top not in memo:
        memo[top] = _OPEN
        stack.append([top, 0, None])
    while stack:
        frame = stack[-1]
        (p, t), j, best = frame
        lt = len(t)
        opts = moves[p]
        while j < len(opts) and best != EMPTY:
            sym, w, lw, p2 = opts[j]
            j += 1
            if lw >= lt:
                if w[:lt] != t:
                    continue
                got = EMPTY
            elif t[:lw] != w:
                continue
            else:
                sub = (p2, t[lw:])
                got = memo.get(sub, _NEW)
                if got is _NEW:  # solve it first, then read this move again
                    memo[sub] = _OPEN
                    frame[1], frame[2] = j - 1, best
                    stack.append([sub, 0, None])
                    break
                if got is _OPEN:
                    raise DegenerateTransducer(
                        f"cycle through state {p2!r} outputs the empty word"
                    )
            if got is not None:
                cone = (sym,) + got
                best = cone if best is None else gcp((best, cone))
        else:
            memo[frame[0]] = best
            stack.pop()
    return memo[top]


def _moves(T):
    return {
        q: tuple((i, w, len(w), p) for i, (w, p) in enumerate(T.row(q))) for q in T.states
    }


def _preimage_gcp(moves, memo, q, v):
    best = _preimage_search(moves, memo, q, v)
    if best is None:
        raise EmptyPreimage(f"cone {v} misses the image of state {q!r}")
    return best


def preimage_gcp(T, q, v):
    """The greatest common prefix of all inputs whose image under the state
    map of q lies in the cone v (the map written (v)L_q).

    A search memoized on (state, rest of the cone) for this call: a branch
    whose output already covers the rest of the cone contributes its whole
    input cone, one whose output leaves the cone contributes nothing.  Its
    work is at most |Q| x (|v|+1) subproblems of one row each."""
    T.step(q, 0)  # an unknown state is an error, not an empty preimage
    return _preimage_gcp(_moves(T), {}, q, tuple(v))


def inverse_closure(T, root=None, cap=10000, img=None):
    """The inverse behaviours of a core machine as a total transducer.

    Seeded from the image antichain of `root`: for each maximal image cone a,
    the state (a - forward output on (a)L_root, forward state on (a)L_root);
    then closed forward under the inverse transition rule.  The closure
    contains the full core of the inverse whenever T is synchronizing.
    `img` is images(T) when the caller already has it.  All preimage
    searches of one call share one memo."""
    if img is None:
        img = images(T)
    if root is None:
        root = T.states[0]
    moves = _moves(T)
    memo = {}
    seeds = []
    for a in img[root].cones:
        phi = _preimage_gcp(moves, memo, root, a)
        out, p = evaluate(T, root, phi)
        seeds.append((subtract_prefix(out, a), p))
    table = {}
    queue = list(dict.fromkeys(seeds))
    known = set(queue)
    while queue:
        w, q = queue.pop()
        row = {}
        for i in range(T.n):
            v = _preimage_gcp(moves, memo, q, w + (i,))
            out, p = evaluate(T, q, v)
            nxt = (subtract_prefix(out, w + (i,)), p)
            row[i] = (v, nxt)
            if nxt not in known:
                if len(known) >= cap:
                    raise StateExplosion(f"inverse closure passed {cap} states")
                known.add(nxt)
                queue.append(nxt)
        table[(w, q)] = row
    return Transducer(T.n, table)


def is_bisynchronizing_core(T, root=None, cap=10000, img=None):
    """A core machine together with its inverse closure must both collapse.
    `img` is images(T) when the caller already has it."""
    if not is_synchronizing(T):
        return False
    return is_synchronizing(inverse_closure(T, root, cap, img))


# --- inverses over the r-rooted space ---------------------------------------


def _moves_initial(A):
    return {
        q: tuple((s, w, len(w), p) for s in A.symbols_at(q) for w, p in [A.step(q, s)])
        for q in A.states
    }


def preimage_gcp_initial(A, q, v):
    """(v)L_q over the r-rooted space: v is a rooted cone when q is the
    initial state, a plain cone otherwise; likewise for the returned input
    word.  The same memoized search as preimage_gcp."""
    A.step(q, A.symbols_at(q)[0])  # an unknown state is an error
    return _preimage_gcp_initial(_moves_initial(A), {}, q, tuple(v))


def _preimage_gcp_initial(moves, memo, q, v):
    best = _preimage_search(moves, memo, q, v)
    if best is None:
        raise EmptyPreimage(f"cone {v!r} misses the image of the machine")
    return best


def _run_mixed(A, q, w):
    """Evaluate a word that may start with a root marker from state q."""
    out = []
    for sym in w:
        piece, q = A.step(q, sym)
        out.extend(piece)
    return tuple(out), q


def invert_initial(A, cap=10000):
    """The inverse machine of a homeomorphism A of the r-rooted space,
    minimized.  Raises InvalidInput when A is not invertible."""
    A = minimize_initial(A)
    if not is_homeomorphism_initial(A):
        raise InvalidInput("machine is not a homeomorphism, cannot invert")
    inv_root = (EMPTY, A.root)
    root_table = {}
    table = {}
    queue = []
    known = {inv_root}
    moves = _moves_initial(A)
    memo = {}

    def advance(state, sym):
        w, q = state
        target = w + (sym,)
        v = _preimage_gcp_initial(moves, memo, q, target)
        out, p = _run_mixed(A, q, v)
        nxt = (subtract_prefix(out, target), p)
        return v, nxt

    for b in range(A.r):
        v, nxt = advance(inv_root, dot(b))
        root_table[b] = (v, nxt)
        if nxt not in known:
            known.add(nxt)
            queue.append(nxt)
    while queue:
        state = queue.pop()
        w, q = state
        row = {}
        for i in range(A.n):
            v, nxt = advance(state, i)
            row[i] = (v, nxt)
            if nxt not in known:
                if len(known) >= cap:
                    raise StateExplosion(f"inverse closure passed {cap} states")
                known.add(nxt)
                queue.append(nxt)
        table[state] = row
    raw = InitialTransducer(A.n, A.r, root_table, table, root=inv_root)
    return minimize_initial(raw)


def bisynchronizing_failure_initial(A):
    """None when A is bi-synchronizing; otherwise the reason, distinguishing
    non-invertible machines from invertible but non-synchronizing ones."""
    A = minimize_initial(A)
    if not is_homeomorphism_initial(A):
        return "not invertible: the induced map is not a homeomorphism"
    if not is_synchronizing(A):
        return "the machine itself is not synchronizing"
    if not is_synchronizing(invert_initial(A)):
        return "the inverse is not synchronizing"
    return None


def is_bisynchronizing_initial(A):
    return bisynchronizing_failure_initial(A) is None
