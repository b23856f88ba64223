"""Inversion: the preimage-prefix map L, inverses of initial machines, the
rooted inverse closure for core machines, and bi-synchronization.

The inverse of a machine is built from states (w, q): "the forward machine
sits at q and owes the output cone w".  Reading a letter i, the inverse emits
the greatest common prefix v of all forward inputs whose output lies in the
cone w.i, and moves to (w.i minus the forward output on v, forward state on
v).  Every state used here satisfies U_w inside im(q) and (w)L_q empty, which
keeps the subtraction well defined and the machine total."""

from __future__ import annotations

from .words import EMPTY, InvalidInput, gcp, subtract_prefix
from .transducer import DepthExceeded, Transducer, evaluate
from .initial import InitialTransducer, dot, minimize_initial
from .images import images, is_homeomorphism_initial
from .synchronize import is_synchronizing


class EmptyPreimage(ValueError):
    """The requested cone misses the state's image."""


class StateExplosion(RuntimeError):
    """The inverse closure exceeded its configured state cap."""


def preimage_gcp(T, q, v, max_nodes=200000):
    """The greatest common prefix of all inputs whose image under the state
    map of q lies in the cone v (the map written (v)L_q).

    Explores the input tree, pruning branches whose outputs leave the cone;
    a branch whose output already covers v contributes its whole input cone."""
    v = tuple(v)
    best = None
    count = 0
    stack = [(q, v, EMPTY)]
    nodes = 0
    while stack:
        p, t, u = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise DepthExceeded("preimage exploration exceeded its node budget")
        for i in range(T.n):
            w, p2 = T.step(p, i)
            k = min(len(w), len(t))
            if w[:k] != t[:k]:
                continue
            if len(w) >= len(t):
                cone = u + (i,)
                best = cone if best is None else gcp([best, cone])
                count += 1
            else:
                stack.append((p2, t[len(w):], u + (i,)))
        if best == EMPTY and count > 1:
            return EMPTY
    if best is None:
        raise EmptyPreimage(f"cone {v} misses the image of state {q!r}")
    return best


def inverse_closure(T, root=None, cap=10000, img=None):
    """The inverse behaviours of a core machine as a total transducer.

    Seeded from the image antichain of `root`: for each maximal image cone a,
    the state (a - forward output on (a)L_root, forward state on (a)L_root);
    then closed forward under the inverse transition rule.  The closure
    contains the full core of the inverse whenever T is synchronizing.
    `img` is images(T) when the caller already has it."""
    if img is None:
        img = images(T)
    if root is None:
        root = T.states[0]
    seeds = []
    for a in img[root].cones:
        phi = preimage_gcp(T, root, a)
        out, p = evaluate(T, root, phi)
        seeds.append((subtract_prefix(out, a), p))
    table = {}
    queue = list(dict.fromkeys(seeds))
    known = set(queue)
    while queue:
        w, q = queue.pop()
        row = {}
        for i in range(T.n):
            v = preimage_gcp(T, q, w + (i,))
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


def preimage_gcp_initial(A, q, v, max_nodes=200000):
    """(v)L_q over the r-rooted space: v is a rooted cone when q is the
    initial state, a plain cone otherwise; likewise for the returned input
    word."""
    best = None
    count = 0
    stack = [(q, tuple(v), EMPTY)]
    nodes = 0
    while stack:
        p, t, u = stack.pop()
        nodes += 1
        if nodes > max_nodes:
            raise DepthExceeded("preimage exploration exceeded its node budget")
        for sym in A.symbols_at(p):
            w, p2 = A.step(p, sym)
            k = min(len(w), len(t))
            if w[:k] != t[:k]:
                continue
            if len(w) >= len(t):
                cone = u + (sym,)
                best = cone if best is None else gcp([best, cone])
                count += 1
            else:
                stack.append((p2, t[len(w):], u + (sym,)))
        if best == EMPTY and count > 1:
            return EMPTY
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

    def advance(state, sym):
        w, q = state
        target = w + (sym,)
        v = preimage_gcp_initial(A, q, target)
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
