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
closure COMPLETE_RESPONSE, and invert_initial its raw inverse, whose
states but the initial one are such states (transducer.mark).

The inverse closure C of a machine T that holds a passing verdict
synchronizes, so inverse_core marks C SYNCHRONIZING.  The state (w, p)
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

The preimage prefix (v)L_q is read off the images in one walk from q
along v (_preimage_gcp).  A branch of a state leads into the cone exactly
when its image meets the rest of the cone, and two such branches part the
inputs there, so the walk follows the one branch while there is one and
stops at the first state with two: its work is linear in |v|, with no
search and no memo.  Plain and initial machines share the walk and the
forward closure of inverse states.  An inverse is kept in the
memo of the machine it inverts, under "inverse": an initial machine keeps
its minimized inverse, and a plain machine keeps its inverse's canonical
core, never the closure, which can be many times larger.  So a validity
check and a later inversion share one closure."""

from __future__ import annotations

from .words import EMPTY, InvalidInput
from .transducer import (
    COMPLETE_RESPONSE,
    SYNCHRONIZING,
    VALID,
    Transducer,
    mark,
    marked,
    memoized,
)
from .initial import InitialTransducer, dot, minimize_initial
from .images import images, is_homeomorphism_state, non_injective_states, whole
from .synchronize import (
    NotSynchronizing,
    canonical_core,
    is_synchronizing,
)


class EmptyPreimage(ValueError):
    """The requested cone misses the state's image."""


def _preimage_gcp(M, img, depth, q, v):
    """(u, p, k): the preimage prefix u = (v)L_q of the plain or initial
    machine M with images img, the state p that u leads to from q, and the
    length k of the output on u.  Every cone of img is at most `depth`
    long.

    The walk runs from q at an offset k into v.  A branch of the state
    meets the rest of the cone when its output w extends the rest (it
    covers it), or when w is a proper prefix of the rest and the image of
    its destination meets the rest past w.  An image meets a cone exactly
    when it meets the cone's first `depth` letters, so each test reads a
    bounded slice of v.  With one such branch the walk takes its symbol and
    stops if it covers, else it moves on; with two, the inputs into the cone
    part at this state, so the symbols walked so far are their gcp.  No
    branch at the top means that the cone misses im(q); below the top the
    walk entered a state whose image meets the rest.  M is productive, as
    it has images, so the walk takes at most |Q| branches with empty output
    in a row."""
    rows = M._rows
    walked = []
    top, end, k = q, len(v), 0
    while True:
        lt = end - k
        pick = None
        for i, (w, p) in enumerate(rows[q]):
            lw = len(w)
            if lw >= lt:
                if w[:lt] != v[k:]:
                    continue
            elif v[k:k + lw] != w or not img[p].meets_cone(v[k + lw:k + lw + depth]):
                continue
            if pick is not None:
                return tuple(walked), q, k
            pick = i, lw, p
        if pick is None:
            raise EmptyPreimage(f"cone {v} misses the image of state {top!r}")
        i, lw, p = pick
        walked.append(M.symbols_at(q)[i])
        if lw >= lt:
            return tuple(walked), p, k + lw
        q, k = p, k + lw


def preimage_gcp(T, q, v):
    """The greatest common prefix of all inputs whose image under the state
    map of q lies in the cone v (the map written (v)L_q).  On an initial
    machine v is a rooted cone at the initial and pending states, a plain
    cone elsewhere; likewise for the returned input word.

    Its domain is the machines whose images are clopen, where the paper
    uses (v)L_q: elsewhere it raises what images raises, NotClopenImage or
    DegenerateTransducer.  One walk along v (_preimage_gcp), whose work is
    linear in |v|.  A cone outside the space that q maps into
    (images.whole), as a plain cone at a pending state, misses the image."""
    T.row(q)  # an unknown state is an error, not an empty preimage
    img = images(T)
    v = tuple(v)
    space = whole(T, q).cones  # (EMPTY,), or the root cones .a
    head = 1 if v and space != (EMPTY,) else 0  # a root symbol first
    if v[:head] not in space + (EMPTY,) or not all(
        isinstance(s, int) and 0 <= s < T.n for s in v[head:]
    ):
        raise EmptyPreimage(f"cone {v} misses the image of state {q!r}")
    depth = max(len(c) for image in img.values() for c in image.cones)
    return _preimage_gcp(T, img, depth, q, v)[0]


def _inverse_step(M):
    """The inverse transition rule of the plain or initial machine M, whose
    images are clopen: from the inverse state (w, q) on the symbols t, emit
    v = (w.t)L_q and move to (w.t minus the forward output on v, forward
    state on v), both read off the walk.  The forward output on v is the
    prefix of w.t of the walk's output length: U_w.t lies inside im(q) and
    h_q is injective at every state used (see the module docstring)."""
    img = images(M)
    depth = max(len(c) for image in img.values() for c in image.cones)

    def step(state, t):
        w, q = state
        target = w + t
        v, p, k = _preimage_gcp(M, img, depth, q, target)
        return v, (target[k:], p)

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
    return mark(C, COMPLETE_RESPONSE)


def inverse_core(T):
    """The canonical core of T's inverse closure, kept in T's memo under
    "inverse".  Every rooted closure of a synchronizing core contains the
    whole core of the inverse, so the canonical core does not depend on the
    root.  Raises NotSynchronizing when the closure does not synchronize,
    and whatever inverse_closure raises; a failure is not kept."""
    return memoized(T, "inverse", lambda: _inverse_core(T))


def _inverse_core(T):
    """inverse_core(T), computed."""
    C = inverse_closure(T)
    if marked(T, VALID):
        mark(C, SYNCHRONIZING)
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
    entry = tuple(step(inv_root, (dot(b),)) for b in range(A.r))
    queue = list(dict.fromkeys(nxt for _, nxt in entry))
    rows = _close(A.n, step, queue, {inv_root, *queue})
    rows[inv_root] = entry
    raw = InitialTransducer._from_rows(A.n, A.r, inv_root, rows)
    mark(raw, COMPLETE_RESPONSE)
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

