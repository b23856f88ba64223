"""Per-state image analysis: exact clopen images, minimal cone-cover sizes,
injectivity, homeomorphism states, and lexicographic orientation.

Images are computed as the stabilizing limit of the decreasing approximants
A_0(q) = whole(M, q), A_{m+1}(q) = union over letters of out(i,q).A_m(dest);
on stabilization the fixpoint equation holds exactly, and for a productive
machine the fixpoint is exactly the image.  The approximants are computed in
rounds, and a round recomputes only the states with a successor whose
approximant changed in the round before.  The rounds settle exactly when
every image is clopen, so a machine whose rounds pass |Q| rounds is decided
once by the residual test (_check_clopen), which raises NotClopenImage or
lets the rounds run on to their certain end.  Plain and initial machines
share the rounds, the test and one clopen type: the image of an initial or
pending state is a ClopenSet whose cones start with their root symbol .a,
as a rooted output word does.  The images, the non-injective states and the
orientation are memoized on the machine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count

from .words import (
    ClopenSet,
    _merge_cones,
    lex_compare_evp,
    pairwise_disjoint,
    whole_space,
    GREATER,
)
from .transducer import (
    DegenerateTransducer,
    Transducer,
    _letter_outputs,
    check_productive,
    memoized,
)
from .initial import DONE, dot


class NotClopenImage(RuntimeError):
    """The image of some state is not clopen."""


def whole(M, q):
    """The space that state q of the plain or initial machine M maps into:
    the whole space, or at the initial and pending states of an initial
    machine the r-rooted space, the r cones .a."""
    if isinstance(M, Transducer) or M.region[q] is DONE:
        return whole_space(M.n)
    return ClopenSet(M.n, tuple((dot(a),) for a in range(M.r)))


def _fixpoint(M):
    """The images of the plain or initial machine M: rounds of
    img[q] = value(q) over its states, from whole(M, q), until a round
    changes nothing.

    One value serves both kinds.  A pending edge outputs nothing (to a
    pending state) or a word that starts with a root symbol (to a done
    state), so every cone of a pending image starts with a root symbol and
    no cone of a done image has one: the merge never compares a root symbol
    with a letter, and it never merges the r root cones, as a root symbol
    is not the letter n-1.

    Each round computes new approximants from the previous round's.  Round 1
    recomputes every state; a later round recomputes only the predecessors
    of the states that changed in the round before, because every other
    state would compute its previous value again, so there are as many
    rounds as with every state recomputed.  Rounds that have changed
    something |Q| times are checked once by _check_clopen."""
    n, rows = M.n, M._rows
    if isinstance(M, Transducer):  # an initial machine checks on construction
        check_productive(M)
    img = {q: whole(M, q) for q in M.states}

    def value(q):
        return _merge_cones(n, [w + c for w, p in rows[q] for c in img[p].cones])

    preds = {q: set() for q in M.states}
    for p in M.states:
        for _, d in rows[p]:
            preds[d].add(p)
    todo = M.states
    for rounds in count(1):
        new = {q: value(q) for q in todo}
        changed = [q for q, a in new.items() if a != img[q]]
        if not changed:
            return img
        for q in changed:
            img[q] = new[q]
        todo = {p for q in changed for p in preds[q]}
        if rounds == len(M.states):
            _check_clopen(M)


def _check_clopen(M):
    """Raise NotClopenImage unless the image of every state of the plain or
    initial machine M is clopen, by Brzozowski's derivatives of the output
    language (see _residual_graph).  On an initial machine only the states
    past the output root are read: the pending region has no cycle, so the
    image of the initial state or of a pending state is a finite union of
    shifted images of those states, and clopen when they are.

    The empty residual stands for the empty set, and every other residual
    for a nonempty closed set.  A residual that cannot reach the empty one
    meets every cone, so it stands for the whole space.  The rest are
    undecided, and an image is clopen exactly when the residuals read from
    it are decided past some depth: the images are all clopen exactly when
    the undecided residuals read from the states form no cycle."""
    succ = _residual_graph(M)
    preds = {R: [] for R in succ}
    for R, nexts in succ.items():
        for S in nexts:
            preds[S].append(R)
    undecided = set()
    stack = [0] if 0 in succ else []
    while stack:
        for R in preds[stack.pop()]:
            if R and R not in undecided:
                undecided.add(R)
                stack.append(R)
    # peel the undecided residuals that no undecided residual reads into
    into = dict.fromkeys(undecided, 0)
    for R in undecided:
        for S in succ[R]:
            if S in into:
                into[S] += 1
    stack = [R for R, k in into.items() if k == 0]
    while stack:
        R = stack.pop()
        del into[R]
        for S in succ[R]:
            if S in into:
                into[S] -= 1
                if into[S] == 0:
                    stack.append(S)
    if into:
        raise NotClopenImage("some state image is not clopen")


def _residual_graph(M):
    """{residual: the residuals it reads into, letter by letter} over the
    residuals read from the states of the plain machine M, or from the
    states past the output root of the initial machine M.

    A position is an edge with a nonempty output w and an offset k into w;
    it stands for the words w[k:] followed by the image of the edge's
    destination, and the positions are numbered so that a residual, a set of
    positions, is an int bitmask.  A state stands for the residual of its
    edges, an edge with an empty output for the edges of its destination
    (productivity keeps this finite).  Reading a letter keeps the positions
    that expect it and moves each one on: to the next offset, or past the
    end of w to the residual of the destination."""
    rows = M._rows
    states = M.states if isinstance(M, Transducer) else [
        q for q in M.states if M.region[q] is DONE]
    letters = [0] * M.n  # letter -> the positions that expect it
    ends = []  # the destination past the last position of an edge, else None
    first = {}  # (state, letter) -> the first position of the edge
    for q in states:
        for i, (w, p) in enumerate(rows[q]):
            if w:
                first[q, i] = len(ends)
                for a in w:
                    letters[a] |= 1 << len(ends)
                    ends.append(None)
                ends[-1] = p
    start = {}  # state -> its residual
    for top in states:
        stack = [top]
        while stack:
            q = stack[-1]
            later = [p for w, p in rows[q] if not w and p not in start]
            if later:
                stack.extend(later)
                continue
            stack.pop()
            start[q] = 0
            for i, (w, p) in enumerate(rows[q]):
                start[q] |= 1 << first[q, i] if w else start[p]
    moves = [1 << (j + 1) if p is None else start[p] for j, p in enumerate(ends)]

    def read(R, want):
        got = 0
        R &= want
        while R:
            low = R & -R
            got |= moves[low.bit_length() - 1]
            R ^= low
        return got

    succ = {}
    stack = list(set(start.values()))
    while stack:
        R = stack.pop()
        if R not in succ:
            succ[R] = [read(R, want) for want in letters]
            stack.extend(succ[R])
    return succ


def images(M):
    """Exact clopen image of every state of a plain or initial machine M, as
    a ClopenSet; at the initial state and the pending states its cones start
    with their root symbol .a.  It is the space the state maps into exactly
    when it equals whole(M, q)."""
    return memoized(M, "images", lambda: _fixpoint(M))


def _branches_disjoint(M, img, p):
    """Are the images of the branches at state p of the plain or initial
    machine M pairwise disjoint?  The cones of all branches are sorted once
    and only neighbours are compared (pairwise_disjoint); at a pending state
    they all start with a root symbol, and cones of two roots never nest."""
    n = M.n
    return pairwise_disjoint(
        [ClopenSet(n, tuple(w + c for c in img[d].cones)) for w, d in M.row(p)]
    )


def non_injective_states(M):
    """The states q, in state order, with h_q not injective, for a plain
    or initial machine M: each state's branch images are checked once, then
    one reverse-reachability sweep adds every state that reaches a state
    whose branch images overlap."""
    return memoized(M, "non_injective_states", lambda: _non_injective(M))


def _non_injective(M):
    img = images(M)
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


def is_injective_state(T, q):
    """True iff h_q is injective: at every state reachable from q the images
    of distinct branches are pairwise disjoint."""
    T.row(q)  # an unknown state is an error, not an injective state
    return q not in non_injective_states(T)


def is_homeomorphism_state(T, q):
    """True iff h_q is a homeomorphism of the whole space; at the initial
    state of an initial machine, of the r-rooted space, as every state is
    reachable from there."""
    return images(T)[q] == whole(T, q) and is_injective_state(T, q)


class Orientation(Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


def orientation(T):
    """Lexicographic orientation decided by the boundary condition at every
    state: for letters x < y the image of x.(n-1)^w must not exceed the image
    of y.0^w (preserving), or the mirrored inequality must hold (reversing).
    T must be productive with injective clopen-image states, else NEITHER.

    An order-preserving or order-reversing core element automatically
    respects the endpoint identifications of the circle quotient; that is a
    theorem about these machines, so no separate check exists for it."""
    return memoized(T, "orientation", lambda: _boundary_orientation(T))


def _boundary_orientation(T):
    """orientation(T), computed: NEITHER unless T is productive with
    injective clopen-image states, else the boundary condition decides.

    The output of (n-1)^omega and of 0^omega from every state is found once
    (_letter_outputs), so the image of x.(n-1)^omega from q is w_x . H[p_x]
    and the image of y.0^omega is w_y . L[p_y], for the letter edges
    q -x-> p_x and q -y-> p_y with outputs w_x and w_y.  These are the same
    points that pumping each periodic input from q gives, compared the same
    way, in O(|Q| * n) walking instead of O(|Q|^2 * n)."""
    try:
        if non_injective_states(T):
            return Orientation.NEITHER
    except (NotClopenImage, DegenerateTransducer):
        return Orientation.NEITHER
    n, rows = T.n, T._rows
    lo = _letter_outputs(rows, T.states, 0)
    hi = _letter_outputs(rows, T.states, n - 1)
    preserving = True
    reversing = True
    for q in T.states:
        vals_hi = [hi[p].with_prefix(w) for w, p in rows[q]]
        vals_lo = [lo[p].with_prefix(w) for w, p in rows[q]]
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
    bad = set(non_injective_states(T))
    reports = {
        q: StateReport(
            image=img[q],
            m=len(img[q].cones),
            injective=q not in bad,
            homeomorphism=q not in bad and img[q] == whole(T, q),
        )
        for q in T.states
    }
    return reports, orientation(T)
