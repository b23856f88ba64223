"""Per-state image analysis: exact clopen images, minimal cone-cover sizes,
injectivity, homeomorphism states, and lexicographic orientation.

Images are computed as the stabilizing limit of the decreasing approximants
A_0(q) = whole space, A_{m+1}(q) = union over letters of out(i,q).A_m(dest);
on stabilization the fixpoint equation holds exactly, and for a productive
machine the fixpoint is exactly the image.  The approximants are computed in
rounds, and a round recomputes only the states with a successor whose
approximant changed in the round before; `max_iter` bounds the rounds.
Plain and initial machines share the rounds."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .words import (
    ClopenSet,
    EvPeriodicWord,
    RootedClopen,
    canonicalize_clopen,
    empty_clopen,
    lex_compare_evp,
    pairwise_disjoint,
    whole_rooted,
    whole_space,
    GREATER,
)
from .transducer import Transducer, check_productive, evaluate_periodic
from .initial import DONE, split_rooted


class NotClopenImage(RuntimeError):
    """Image iteration failed to stabilize within the configured bound."""


def _fixpoint(M, img, value, max_iter):
    """Rounds of img[q] = value(q) over the states of the plain or initial
    machine M, from the approximants in img, until a round changes nothing;
    returns img.

    Each round computes new approximants from the previous round's.  Round 1
    recomputes every state; a later round recomputes only the predecessors
    of the states that changed in the round before, because every other
    state would compute its previous value again.  So the rounds that
    `max_iter` bounds are as many as with every state recomputed."""
    preds = {q: set() for q in M.states}
    for p in M.states:
        for _, d in M.row(p):
            preds[d].add(p)
    todo = M.states
    for _ in range(max_iter):
        new = {q: value(q) for q in todo}
        changed = [q for q, a in new.items() if a != img[q]]
        if not changed:
            return img
        for q in changed:
            img[q] = new[q]
        todo = {p for q in changed for p in preds[q]}
    raise NotClopenImage(f"images did not stabilize within {max_iter} iterations")


def images(T, max_iter=32):
    """Exact clopen image of every state of a plain transducer."""
    check_productive(T)
    n = T.n
    rows = T._rows
    img = {q: whole_space(n) for q in T.states}
    return _fixpoint(
        T,
        img,
        lambda q: canonicalize_clopen(n, [w + c for w, p in rows[q] for c in img[p].cones]),
        max_iter,
    )


def image(T, q):
    return images(T)[q]


def m_of_state(T, q):
    """Size of the smallest set of cones inside the image that covers it;
    this is the size of the canonical antichain."""
    return len(image(T, q).cones)


def _rooted_branch(A, img, w, p):
    """The image of the branch of the plain or initial machine A that
    outputs w and moves to p, given the images img."""
    root, tail = split_rooted(w)
    target = img[p]
    if root is None:
        if isinstance(target, RootedClopen):
            # pending output, pending successor: the structure rules make
            # the tail empty here, so the branch image is the target's
            return target
        return target.shift(tail)
    parts = [empty_clopen(A.n)] * A.r
    parts[root] = target.shift(tail)
    return RootedClopen(A.n, A.r, parts)


def _branches_disjoint(M, img, p):
    """Are the images of the branches at state p pairwise disjoint?  The
    cones of all branches are sorted once, and once per root over the
    rooted space, and only neighbours are compared (pairwise_disjoint)."""
    if isinstance(M, Transducer):  # plain outputs carry no root marker
        return pairwise_disjoint([img[d].shift(w) for w, d in M.row(p)])
    pieces = [_rooted_branch(M, img, w, d) for w, d in M.row(p)]
    if isinstance(pieces[0], ClopenSet):
        return pairwise_disjoint(pieces)
    return all(pairwise_disjoint(parts) for parts in zip(*(b.parts for b in pieces)))


def non_injective_states(M, img):
    """The states q, in state order, with h_q not injective, given the
    images img of the plain or initial machine M (images or
    images_initial): each state's branches are checked once, then one
    reverse-reachability sweep adds every state that reaches a state whose
    branch images overlap."""
    preds = {q: [] for q in M.states}
    for p in M.states:
        for _, d in M.row(p):
            preds[d].append(p)
    stack = [p for p in M.states if not _branches_disjoint(M, img, p)]
    bad = set(stack)
    while stack:
        for p in preds[stack.pop()]:
            if p not in bad:
                bad.add(p)
                stack.append(p)
    return [q for q in M.states if q in bad]


def is_injective_state(T, q, img=None):
    """True iff h_q is injective: at every state reachable from q the images
    of distinct branches are pairwise disjoint.  `img` is images(T) when the
    caller already has it."""
    T.row(q)  # an unknown state is an error, not an injective state
    return q not in non_injective_states(T, images(T) if img is None else img)


def is_homeomorphism_state(T, q):
    img = images(T)
    return img[q].is_whole() and is_injective_state(T, q, img=img)


class Orientation(Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def orientation(T):
    """Lexicographic orientation decided by the boundary condition at every
    state: for letters x < y the image of x.(n-1)^w must not exceed the image
    of y.0^w (preserving), or the mirrored inequality must hold (reversing).
    States must all be injective with clopen image, else NEITHER.

    An order-preserving or order-reversing core element automatically
    respects the endpoint identifications of the circle quotient; that is a
    theorem about these machines, so no separate check exists for it."""
    try:
        img = images(T)
    except NotClopenImage:
        return Orientation.NEITHER
    if non_injective_states(T, img):
        return Orientation.NEITHER
    return _boundary_orientation(T)


def _boundary_orientation(T):
    """orientation() of T once every state is known to be injective."""
    n = T.n
    preserving = True
    reversing = True
    for q in T.states:
        vals_hi = [evaluate_periodic(T, q, EvPeriodicWord((x,), (n - 1,))) for x in range(n)]
        vals_lo = [evaluate_periodic(T, q, EvPeriodicWord((x,), (0,))) for x in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                if lex_compare_evp(vals_hi[x], vals_lo[y]) == GREATER:
                    preserving = False
                if lex_compare_evp(vals_lo[y], vals_hi[x]) == GREATER:
                    reversing = False
        if not (preserving or reversing):
            return Orientation.NEITHER
    if preserving:
        return Orientation.PRESERVING
    if reversing:
        return Orientation.REVERSING
    return Orientation.NEITHER


@dataclass
class StateReport:
    image: ClopenSet
    m: int
    injective: bool
    homeomorphism: bool


def analyze(T):
    """One StateReport per state plus the machine orientation."""
    img = images(T)
    bad = set(non_injective_states(T, img))
    reports = {
        q: StateReport(
            image=img[q],
            m=len(img[q].cones),
            injective=q not in bad,
            homeomorphism=q not in bad and img[q].is_whole(),
        )
        for q in T.states
    }
    return reports, Orientation.NEITHER if bad else _boundary_orientation(T)


# --- images over the r-rooted space ---------------------------------------


def images_initial(A, max_iter=32):
    """Image of every state of an initial machine: a ClopenSet for states past
    the output root, a RootedClopen for the initial state and pending states."""
    n, r = A.n, A.r
    img = {
        q: whole_space(n) if A.region[q] is DONE else whole_rooted(n, r) for q in A.states
    }

    def value(q):
        pieces = [_rooted_branch(A, img, w, p) for w, p in A.row(q)]
        acc = pieces[0]
        for piece in pieces[1:]:
            acc = acc.union(piece)
        return acc

    return _fixpoint(A, img, value, max_iter)


def is_injective_initial(A, img=None):
    """True iff at every state the images of distinct branches are pairwise
    disjoint.  `img` is images_initial(A) when the caller already has it."""
    return not non_injective_states(A, images_initial(A) if img is None else img)


def is_homeomorphism_initial(A):
    """True iff the induced map of C_{n,r} is a homeomorphism."""
    img = images_initial(A)
    return is_injective_initial(A, img=img) and img[A.root].is_whole()
