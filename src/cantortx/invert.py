"""Inversion: the preimage-prefix map L, inverses of initial machines, the
rooted inverse closure and the inverse core of core machines, and
bi-synchronization.

The inverse of a machine is built from states (w, q): "the forward machine
sits at q and owes the output cone w".  Reading a letter i, the inverse emits
the greatest common prefix v of all forward inputs whose output lies in the
cone w.i, and moves to (w.i minus the forward output on v, forward state on
v).  Every state used here satisfies U_w inside im(q) and (w)L_q empty, which
keeps the subtraction well defined and the machine total.

So every such state has complete response: its forced output is the gcp of
its outputs over all inputs, which is the gcp of the preimages of U_w under
h_q, (w)L_q, empty.  The construction makes (w)L_q empty at every state it
reaches.  From (w, q) on t it emits v = (w.t)L_q and moves to (w', p) with
w.t = (forward output on v).w' and p the forward state on v; an input u
from p has its output in U_w' exactly when v.u from q has its output in
U_w.t, so v.(w')L_p = (w.t)L_q = v, and (w')L_p is empty.  The seeds of a
closure are such moves from the root.  So inverse_closure marks its
closure "complete_response" in the closure's memo, and invert_initial marks
its raw inverse so (every state but the initial one), as minimize_rooted
marks its result "minimal": canonical_core and minimize_initial then merge
those states as they are, with no forced-output pass.

The inverse closure C of a machine T that holds a passing verdict
synchronizes, so inverse_core marks C "synchronizing" in its memo and its
core is found with no collapse (synchronize.core_states).  The state (w, p)
maps y to the preimage of w.y under h_p.  The verdict makes T
bi-synchronizing, so its inverse synchronizes: some word length k brings
every state of C to one omega-equivalence class.  Omega-equivalent states
with complete response have equal rows up to equivalence, so from there on
the two runs stay equivalent and emit the same inputs.  C has no cycle that
emits nothing, as the preimages of shrinking cones shrink to one point, so
after |C| * level_T more letters both runs have emitted level_T letters
alike, which bring T to one forward state p.  Two omega-equivalent states
(w, p) and (w', p) are equal: the preimages of w.y and w'.y under h_p agree
for every y, h_p is injective, so w.y = w'.y for every y, and w = w'.  So
every word of length k + |C| * level_T brings every state of C to one
state.  A closure built to decide a verdict is not marked, and collapses.

The closure of a machine whose states are injective with clopen images is
finite, so it needs no cap.  U_w lies in im(q) and (w)L_q is empty, so U_w
meets the images w_i.im(p_i) of two branches of q, which are disjoint.  A
branch image that meets U_w contains all of it once |w| >= |w_i| + the
length of the longest cone of im(p_i).  So every closure state has |w| less
than the greatest |w_i| + depth im(p_i) over the edges of the machine.

The preimage prefix (v)L_q is a search memoized on (state, rest of the cone):
each pair is solved once, so one search costs at most |Q| x (|v|+1) pairs
and needs no node budget.  Plain and initial machines share the search and
the forward closure of inverse states; one closure keeps one memo over all
its preimage searches and drops it on return.  An inverse is kept in the
memo of the machine it inverts, under "inverse": an initial machine keeps
its minimized inverse, and a plain machine keeps its inverse's canonical
core, never the closure, which can be many times larger.  So a validity
check and a later inversion share one closure."""

from __future__ import annotations

from .words import EMPTY, InvalidInput, subtract_prefix
from .transducer import DegenerateTransducer, Transducer, memoized
from .initial import InitialTransducer, dot, minimize_initial
from .images import images, is_homeomorphism_state, non_injective_states
from .synchronize import (
    NotSynchronizing,
    canonical_core,
    is_synchronizing,
    mark_synchronizing,
)


class EmptyPreimage(ValueError):
    """The requested cone misses the state's image."""


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
    left).  The gcp of the contributions is the answer.  The contributions
    of one subproblem start with its symbols, which are distinct, so the
    gcp of two of them is empty: one contribution is the answer, and a
    second makes it EMPTY at once and stops the subproblem, with no prefix
    to compare.  The search keeps its own stack, so long cones need no
    recursion; a subproblem met again while it is still open lies on an
    empty-output cycle."""
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
        stop = len(opts)
        while j < stop and best is not EMPTY:
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
                best = (sym,) + got if best is None else EMPTY
        else:
            memo[frame[0]] = best
            stack.pop()
    return memo[top]


def _moves(M):
    """(symbol, output, output length, destination) for every symbol of every
    state of a plain or initial machine."""
    return {
        q: tuple((s, w, len(w), p) for s, (w, p) in zip(M.symbols_at(q), M.row(q)))
        for q in M.states
    }


def _preimage_gcp(moves, memo, q, v):
    best = _preimage_search(moves, memo, q, v)
    if best is None:
        raise EmptyPreimage(f"cone {v} misses the image of state {q!r}")
    return best


def preimage_gcp(T, q, v):
    """The greatest common prefix of all inputs whose image under the state
    map of q lies in the cone v (the map written (v)L_q).  On an initial
    machine v is a rooted cone at the initial state, a plain cone elsewhere;
    likewise for the returned input word.

    A search memoized on (state, rest of the cone) for this call: a branch
    whose output already covers the rest of the cone contributes its whole
    input cone, one whose output leaves the cone contributes nothing.  Its
    work is at most |Q| x (|v|+1) subproblems of one row each."""
    T.step(q, T.symbols_at(q)[0])  # an unknown state is an error, not an empty preimage
    return _preimage_gcp(_moves(T), {}, q, tuple(v))


def _inverse_step(M):
    """The inverse transition rule of the plain or initial machine M, with
    one memo for all its preimage searches: from the inverse state (w, q) on
    the symbols t, emit v = (w.t)L_q and move to (w.t minus the forward
    output on v, forward state on v).  The search has checked every symbol
    of v, so the output and the forward state on v are read from M's rows
    directly: cell a of the entry row for the root symbol .a, cell i of a
    row for the letter i."""
    moves = _moves(M)
    rows = M._rows
    memo = {}

    def step(state, t):
        w, q = state
        target = w + t
        v = _preimage_gcp(moves, memo, q, target)
        out = EMPTY
        for sym in v:
            piece, q = rows[q][sym if type(sym) is int else sym[1]]
            out += piece
        return v, (subtract_prefix(out, target), q)

    return step


def _close(n, step, queue, known):
    """Close the inverse states on `queue` forward over the letters, last in
    first out.  `known` holds the states met so far.  Returns {state: row}
    in the order the states were closed."""
    rows = {}
    while queue:
        state = queue.pop()
        row = []
        for i in range(n):
            v, nxt = step(state, (i,))
            row.append((v, nxt))
            if nxt not in known:
                known.add(nxt)
                queue.append(nxt)
        rows[state] = tuple(row)
    return rows


def inverse_closure(T, root=None):
    """The inverse behaviours of a core machine as a total transducer.

    Seeded from the image antichain of `root`: for each maximal image cone a,
    the state (a - forward output on (a)L_root, forward state on (a)L_root);
    then closed forward under the inverse transition rule.  The closure
    contains the full core of the inverse whenever T is synchronizing.
    Its states have complete response (see the module docstring), and its
    memo says so.  All preimage searches of one call share one memo.
    Raises InvalidInput when a state is not injective, and NotClopenImage
    when an image is not clopen: the closure is finite otherwise (see the
    module docstring)."""
    root = T.states[0] if root is None else root
    T.row(root)  # an unknown root is an error, not a missing image
    bad = non_injective_states(T)
    if bad:
        raise InvalidInput(f"state {bad[0]!r} is not injective")
    step = _inverse_step(T)
    queue = list(dict.fromkeys(step((EMPTY, root), a)[1] for a in images(T)[root].cones))
    C = Transducer._from_rows(T.n, _close(T.n, step, queue, set(queue)))
    C._memo = {"complete_response": True}
    return C


def inverse_core(T):
    """The canonical core of T's inverse closure, kept in T's memo under
    "inverse".  Every rooted closure of a synchronizing core contains the
    whole core of the inverse, so the canonical core does not depend on the
    root.  The closure of a T that holds a passing verdict is marked
    synchronizing (see the module docstring).  Raises NotSynchronizing when
    an unmarked closure does not synchronize, and whatever inverse_closure
    raises; a failure is not kept."""
    return memoized(T, "inverse", lambda: _inverse_core(T))


def _inverse_core(T):
    """inverse_core(T), computed."""
    C = inverse_closure(T)
    memo = T._memo or {}
    if "validation" in memo and memo["validation"] is None:  # a passing verdict
        mark_synchronizing(C)
    return canonical_core(C)


def is_bisynchronizing_core(T):
    """A core machine together with its inverse closure must both collapse;
    False for a machine with a non-injective state, which has no inverse."""
    if not is_synchronizing(T) or non_injective_states(T):
        return False
    try:
        inverse_core(T)
    except NotSynchronizing:
        return False
    return True


# --- inverses over the r-rooted space ---------------------------------------


def invert_initial(A):
    """The inverse machine of a homeomorphism A of the r-rooted space,
    minimized.  Raises InvalidInput when A is not invertible.  The inverse's
    entry row reads the output roots .b; its other states are closed forward
    as in inverse_closure, which a homeomorphism keeps finite.  The inverse
    is kept in the memo of the minimized A under "inverse", and A's memo
    keeps the minimized A, so each machine is inverted once."""
    A = minimize_initial(A)
    return memoized(A, "inverse", lambda: _invert_minimal(A))


def _invert_minimal(A):
    """invert_initial(A) of a minimal A, computed."""
    if not is_homeomorphism_state(A, A.root):
        raise InvalidInput("machine is not a homeomorphism, cannot invert")
    inv_root = (EMPTY, A.root)
    step = _inverse_step(A)
    entry = [step(inv_root, (dot(b),)) for b in range(A.r)]
    queue = list(dict.fromkeys(nxt for _, nxt in entry))
    rows = _close(A.n, step, queue, {inv_root, *queue})
    table = {state: dict(enumerate(row)) for state, row in rows.items()}
    raw = InitialTransducer(A.n, A.r, dict(enumerate(entry)), table, root=inv_root)
    raw._memo = {"complete_response": True}
    return minimize_initial(raw)


def bisynchronizing_failure_initial(A):
    """None when A is bi-synchronizing; otherwise the reason, distinguishing
    non-invertible machines from invertible but non-synchronizing ones."""
    A = minimize_initial(A)
    if not is_homeomorphism_state(A, A.root):
        return "not invertible: the induced map is not a homeomorphism"
    if not is_synchronizing(A):
        return "the machine itself is not synchronizing"
    if not is_synchronizing(invert_initial(A)):
        return "the inverse is not synchronizing"
    return None

