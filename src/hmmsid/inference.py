"""Scaled forward/backward and Viterbi passes, and state-path decoding.

One engine serves both orders. A second-order chain is a first-order chain
over state pairs (see embed_pair_states), so each recursion runs once over
a slice holding the last ``order`` states. It is laid out over the P
entries of that slice that can ever hold a nonzero forward or backward
value or a finite best score (_Entries): for order 1 the N states, so P =
N and the (N,) vector is the slice itself; for order 2 the pairs that
``trans1`` allows, that an allowed triple enters, or that an allowed
triple leaves, in some model of the stack (69 of 576 for a 24-state
left-to-right model, 72 for a ring: a left-to-right or ring model's
entries are its ``allowed1`` pairs). A pair that only triples leave has
forward values of 0 but backward values that are not. Every other pair
is 0 in every forward and backward slice, but the last backward slice of
a lane, and -inf in every Viterbi slice. The layout depends only on the
zero pattern of the transition arrays, so it is built once per pattern,
with the E-step's tables, and shared read-only by every stack of that
pattern (_slice_entries); a stack only gathers its transition values.

Only the step that carries a slice one frame on depends on the order.
Order 1's forward and backward steps are ``prev @ trans`` and its twin.
Order 2's take each entry's terms over its allowed predecessors (the
forward step: ``trans1`` at the first step, ``trans2`` after it) or
successors (the backward step, as (trans2 * b) * beta, the dense
contraction's association), from (K, P) tables of their places in the
previous (next) slice with the transition values gathered there once per
stack. The skipped terms are exact zeros and the kept ones are added in
ascending order, so every entry has the bits of the contraction over all
N^2 pairs. Each forward normalizer is the sum of the whole slice: where
the entries do not fill it, the slice is scattered into a row of N^2
zeros kept for the pass, and that row is summed, so it has the bits of
the sum over all pairs; order 1's slice is summed as it is. forward2 and
forward_backward2 scatter the (T, P) tables into (T, N, N) pair tables
of zeros; the E-step reads them as they are.

The forward and Viterbi recursions also run over a leading model axis, so
score_models scores every candidate model of an utterance in one pass.
Forward-backward runs that axis as "lanes", the utterances of one model,
so that a Baum-Welch E-step makes one emission call, one forward and one
backward pass per iteration. The single-model, single-utterance functions
are the one-model and one-lane cases of the same code. Viterbi scoring
(score_models) runs the max-plus recursion without back-pointers, since
it reads only the best score; viterbi1/viterbi2 keep them to decode the
path. Each Viterbi step takes every entry's maximum over its allowed
predecessors only, with the log-transitions taken once per stack. Every
candidate is the same single addition as over all N predecessors, the
maximum is exact and every pair left out is -inf at every frame, so
scores, paths and failing frames keep their bits; the predecessors are
in ascending order and the entries row-major, so ties still break toward
the lowest index.

Numerical regime
----------------
Forward and backward run in the linear domain: every alpha slice is divided
by its sum, and ``slice_log_norms[t]`` is the log of that sum plus the
frame's emission shift, so log_likelihood = sum_t slice_log_norms[t].
Viterbi is max-plus in the log domain. Before exponentiating, each frame's
log-densities are shifted by their maximum and the shift is folded back into
that frame's normalizer, so a frame whose densities are merely tiny never
looks impossible. The terminal backward slice is 1 for left-to-right
models and 1/N for circular models; reestimation ratios are invariant to
that constant. Backward slice t is divided by forward slice t's
normalizer (in the shifted domain). On a frame far from the model that
normalizer can be so small (even subnormal) that the division overflows.
A lane with an inf or NaN at any entry of its backward table is run
again with each slice divided by its own maximum instead. The step over
allowed successors carries an inf or NaN only along allowed transitions,
so the whole table is tested; the first inf or NaN of a lane is at an
entry (0 divided by a normalizer of 0 is NaN at every pair), so the lanes
run again are those the steps over all pairs would run again, and the
bits of the others are theirs too. Posteriors are per-frame ratios, so
they do not depend on which divisor a slice had.

Every pass fails an utterance with ImpossibleObservationError at the
first frame whose forward normalizer is 0 (no state with incoming mass can
emit it; a frame with all densities -inf is shifted by 0, so it is one),
or, for Viterbi, whose best score is -inf. A +inf or NaN log-density (a
zero variance) fails it with ValueError. _raise_first raises the errors,
naming the utterance where it has a name.

Lanes of differing lengths share one time axis: row t is every lane's
frame t. Forward pads each lane after its last frame with emissions of 1
and shifts of 0; backward starts each lane from its terminal slice at its
own last frame and gives its padding normalizers of 1. A lane's own
frames never read another lane or a padding row, so its alpha, beta,
normalizers and log-likelihood (the sum of its first T_k log normalizers)
are bitwise those of running it alone.

State indices are 0-based; frame indices are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ImpossibleObservationError, _named
from .models import _TRANSITION_FIELDS, Hmm1Model, Hmm2Model, custom_topology

__all__ = [
    "TrellisLattice",
    "StatePath",
    "log_emission_matrix",
    "forward1",
    "forward_backward1",
    "viterbi1",
    "forward2",
    "forward_backward2",
    "viterbi2",
    "score_models",
    "embed_pair_states",
    "decode_pair_path",
]


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------

def _utterance(obs):
    """(frames, name) of a FeatureMatrix (name None when its source is
    empty) or of a raw array (name None)."""
    if hasattr(obs, "frames"):
        return obs.frames, obs.meta.source or None
    return obs, None


def log_emission_matrix(model, obs) -> np.ndarray:
    """(T, N) matrix of per-state log emission densities for ``obs``.

    A non-finite continuous frame would make every score NaN; it raises
    ValueError naming the frame and the utterance (when ``obs`` has one).
    """
    logb, errors, name = _emission_terms(_ModelStack((model,)), obs)
    _raise_first(errors, [name])
    return logb[:, 0]


def _checked(kind, obs):
    """(x, name): ``obs`` converted and checked by the emission ``kind``'s
    observation rule, and its name (see _utterance); an empty utterance
    raises ValueError."""
    x, name = _utterance(obs)
    x = kind._observations(x, name)
    if x.shape[0] == 0:
        raise ValueError(_named("empty observation sequence", name))
    return x, name


def _emission_terms(stack, obs):
    """The checks and the arithmetic behind log_emission_matrix, for the
    S models of ``stack`` (a _ModelStack) at once.

    ``obs`` is converted and checked by _checked and scored by the emission
    kind's kernel in one call. Returns the (T, S, N) log emission densities,
    per model the error _bad_densities records, and the utterance's name.
    Checks of ``obs`` itself raise at once, naming the utterance where it
    has a name.
    """
    x, name = _checked(stack.emission, obs)
    try:
        logb = stack.emission._kernel(x, *stack.emission_parameters)[0]
    except ValueError as err:   # the kernel's check of the frames (dimension, symbol range)
        raise ValueError(_named(str(err), name)) from None
    logb = logb.reshape(x.shape[0], stack.n_models, stack.n_states)
    return logb, _bad_densities(logb), name


def _bad_densities(logb):
    """Per model (or lane) of the (T, S, N) log densities ``logb``, the
    ValueError a +inf or NaN density raises, else None. Such a model's
    densities are set to 0 so that it stays quiet in the recursions."""
    errors = [None] * logb.shape[1]
    bad = ~(logb < np.inf)   # +inf or NaN
    if bad.any():
        for k in np.flatnonzero(bad.any(axis=(0, 2))):
            what = "infinite" if np.isposinf(logb[:, k]).any() else "NaN"
            errors[k] = ValueError(f"emission density is {what} (zero variance?)")
            logb[:, k] = 0.0
    return errors


def _shifted_emissions(logb):
    """Per-frame max-shifted linear emission densities of the (T, S, N) log
    densities ``logb``.

    Returns (bsh, shifts) with bsh[t, s] = exp(logb[t, s] - shifts[t, s]) in
    [0, 1]. A frame whose densities are all -inf is shifted by 0, so its
    forward normalizer is 0 and _forward fails it ("Numerical regime").
    """
    shifts = np.max(logb, axis=2)
    shifts[np.isneginf(shifts)] = 0.0
    return np.exp(logb - shifts[..., None]), shifts


def _fail_first(errors, hits):
    """Record, for each model without an error, ImpossibleObservationError
    at its first True in the (S, T) ``hits``."""
    for k in np.flatnonzero(hits.any(axis=1)):
        if errors[k] is None:
            errors[k] = ImpossibleObservationError(np.argmax(hits[k]))


def _raise_first(errors, names):
    """Raise the first error of ``errors`` (one entry per model or lane, in
    order): the one that running them one by one would raise. An
    ImpossibleObservationError names the utterance of its entry in
    ``names`` unless that is None."""
    for err, name in zip(errors, names):
        if isinstance(err, ImpossibleObservationError) and name is not None:
            raise ImpossibleObservationError(err.frame, utterance=name)
        if err is not None:
            raise err


# ---------------------------------------------------------------------------
# the scaled lattice engine
# ---------------------------------------------------------------------------
#
# _forward and _viterbi run S models of one shape at once (a _ModelStack;
# S = 1 for a single model) over frame-major (T, S, N) emissions. Each
# model's numbers are computed as the one-model recursion computes them,
# so its results are bitwise those of running it alone: each slice's
# normalizer is summed over that model's own contiguous slice (order 2:
# its own row of N^2 pairs), log normalizers are summed along a contiguous
# T axis, and the order-1 step is a (S, 1, N) @ (S, N, N) matmul. A model
# that fails records its error in ``errors``; the NaN (forward) or -inf
# (Viterbi) it carries from then on stays in its own slices.
#
# _lanes runs one model's utterances the same way, as lanes in place of
# models: one emission-kernel call on their concatenated frames, one
# _forward and one _backward over lanes padded as "Numerical regime" says.
# Its one-model stack's leading axis of 1 broadcasts over the L lanes.


def _stack_key(model):
    """What models must share to be stacked: the order, the emission kind
    and the shapes of its stacked parameters (which hold the state count)."""
    return model.order, type(model.emissions[0]), tuple(p.shape for p in model._emission_parameters)


class _ModelStack:
    """S models with one _stack_key, their parameters stacked along a
    leading model axis: ``initial`` (S, N), each transition array of
    _TRANSITION_FIELDS (S, N, ...), and ``emission_parameters``, each field
    of the emission kind ``emission`` stacked over the S·N states model by
    model ((S·N, M) weights, ...). A one-model stack views its model's
    arrays; its leading axis of 1 also serves any number of lanes."""

    def __init__(self, models):
        first = models[0]
        self.order = first.order
        self.n_states = first.n_states
        self.n_models = len(models)
        self.emission = type(first.emissions[0])
        for name in ("initial",) + _TRANSITION_FIELDS[self.order]:
            setattr(self, name, _stacked([getattr(m, name)[None] for m in models]))
        self.emission_parameters = tuple(map(_stacked, zip(*(m._emission_parameters for m in models))))

    @cached_property
    def entries(self):
        """The _Entries of the zero pattern of the stack's last transition
        array and, for order 2, of ``trans1``, over all its models (a
        transition is allowed where it is not 0)."""
        patterns = ((getattr(self, name) != 0.0).any(axis=0) for name in _TRANSITION_FIELDS[self.order])
        return _slice_entries(self.order, self.n_states, *(p.tobytes() for p in patterns))

    @cached_property
    def steps(self):
        """Per kind of step of ``entries.steps``: its (K, P) places, the
        (S, K, P) transition values from each entry's predecessors (0 at
        padding) and their logs."""
        steps = []
        for name, (places, at, ok) in zip(_TRANSITION_FIELDS[self.order], self.entries.steps):
            values = _gathered(getattr(self, name), at, ok)
            steps.append((places, values, _log(values)))
        return tuple(steps)


class _Entries(NamedTuple):
    """The layout of one zero pattern (see _slice_entries), read-only since
    stacks share it: the P entries of the slice (states for order 1, pairs
    for order 2) that can ever hold a nonzero forward or backward value or
    a finite best score, in ascending flat order. ``flat`` is each entry's
    flat index in the slice, ``last`` the state it ends in, ``place`` the
    place among the P of each of the N^order slice entries (0 off them),
    and ``ending`` the (K', N) places of the entries that end in each
    state, in ascending order, padded with place P (order 1: arange(N),
    arange(N) and arange(N)[None]). ``steps`` holds, per kind of forward
    step (order 2: with ``trans1``, then with ``trans2``), the (K, P)
    places in the previous slice of each entry's predecessors, in
    ascending state, the flat index of each move in the step's transition
    array and whether the pattern allows it (not at padding); ``back`` the
    same for order 2's backward step over successors, with their states
    after the places (None for order 1). ``moves`` is the E-step's table
    of the allowed moves of the last transition array (flat indices in it,
    places of the entries they leave and enter, last states); ``row_sums``
    and ``pair_sums`` are the _RowSums of that array's rows and of slices."""

    flat: np.ndarray
    last: np.ndarray
    place: np.ndarray
    ending: np.ndarray
    steps: tuple
    back: tuple | None
    moves: tuple
    row_sums: _RowSums
    pair_sums: _RowSums


def _gathered(array, at, ok):
    """The (S, K, P) values of the stacked (S, ...) transition ``array`` at
    the flat indices ``at``, 0 where ``ok`` is False."""
    return np.where(ok, array.reshape(len(array), -1)[:, at], 0.0)


def _stacked(arrays):
    """The arrays joined along their first axis; one array as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass
class TrellisLattice:
    """Scaled forward (and optionally backward) tables for one utterance.

    order 1: alpha/beta are (T, N). order 2: alpha/beta are (T, N, N) pair
    tables valid for slice index >= 1. ``slice_log_norms[t]`` is the log of
    slice t's normalizer in the unshifted domain (the log conditional
    probability of frame t given the frames before it), so
    log_likelihood = sum(slice_log_norms); ``emission_shifts`` are the
    per-frame maxima the emissions were shifted by.
    """

    order: int
    alpha: np.ndarray
    slice_log_norms: np.ndarray
    log_likelihood: float
    beta: np.ndarray | None = None
    emission_shifts: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class StatePath:
    """A decoded state sequence and its joint log-probability."""

    states: np.ndarray
    log_prob: float

    def __post_init__(self):
        object.__setattr__(
            self, "states", np.asarray(self.states, dtype=np.int64)
        )


def _step(stack, t, prev):
    """Carry the (S, P) slices at t-1 (order 2's frame 1: the (S, N)
    first-frame vectors) to frame t, before weighting by frame t's
    emissions. Order 1 is the (S, 1, N) @ (S, N, N) matmul. Order 2 sums
    each entry's terms prev * trans over its allowed predecessors, in
    ascending order: the contraction over all N predecessors adds the
    same terms in that order, and exact zeros for the others."""
    if stack.order == 1:
        return (prev[:, None] @ stack.trans)[:, 0]
    places, values, _ = stack.steps[min(t, 2) - 1]
    terms = prev.take(places, axis=1)
    terms *= values
    return np.add.reduce(terms, 1)


def _back_step(stack, weights, beta):
    """Backward twin of _step: the (L, P) slices at frame t from frame
    t+1's (L, P) backward slices ``beta``, before normalization. For
    order 1 ``weights`` are frame t+1's (L, N) shifted emissions b and the
    step is trans @ (b * beta). For order 2 they are the (L, K', P)
    products trans2 * b at each entry's allowed successors (see
    _backward), and each entry sums (trans2 * b) * beta over them in
    ascending order, as the contraction over all N successors does."""
    if stack.order == 1:
        return np.matmul(stack.trans, (weights * beta)[..., None])[..., 0]
    terms = beta.take(stack.entries.back[0], axis=1)
    terms *= weights
    return np.add.reduce(terms, 1)


def _forward(stack, bsh, shifts, errors, lengths=None):
    """Scaled forward pass of every model (or lane) of ``stack`` over the
    (T, S, N) shifted emissions ``bsh`` and their (T, S) ``shifts``.

    Returns (alpha, log_norms): the (T, S, P) tables over the stack's
    entries (order 2's slice 0 is 0: the first-frame vectors have no
    place among the pairs) and the (S, T) slice log normalizers. Each
    normalizer is the sum of the whole slice: where the entries do not
    fill it, the slice is scattered into a row of N^order zeros kept for
    the pass, and that row is summed. A model
    whose slice sums to 0 at frame t gets ImpossibleObservationError(t) in
    ``errors``; its later values are NaN. With ``lengths``, lane k's
    frames from lengths[k] on are padding and record no error.
    """
    T, S, N = bsh.shape
    order, flat = stack.order, stack.entries.flat
    b = bsh.take(stack.entries.last, axis=2)
    row = None
    if len(flat) < N**order:   # else the slice is whole, and summed as it is
        row = np.zeros((S, N**order))
        at = (np.arange(S)[:, None] * N**order + flat).ravel()   # of each entry in the flattened rows
    alpha = np.zeros((T, S, len(flat)))
    norms = np.empty((T, S, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = stack.initial * bsh[0]
        # positional out= arguments: the loop below runs once per frame
        s = np.add.reduce(u, 1, None, norms[0], True)
        a = u / s if order == 2 else np.divide(u, s, alpha[0])   # order 2: the first-frame vectors
        for t in range(1, T):
            u = _step(stack, t, a)
            u *= b[t]
            if row is not None:
                row.put(at, u)
            s = np.add.reduce(u if row is None else row, 1, None, norms[t], True)
            a = np.divide(u, s, alpha[t])
        norms = norms.reshape(T, S).T.copy()
        log_norms = np.log(norms)
    log_norms += shifts.T
    dead = norms <= 0.0
    if lengths is not None:
        dead &= np.arange(T) < lengths[:, None]
    _fail_first(errors, dead)
    return alpha, log_norms


def _backward(stack, bsh, lengths, terminal, norms=None):
    """Scaled (T, L, P) backward tables, over the stack's entries, of L
    lanes of the one-model ``stack`` on the time axis of their forward
    pass, from its (T, L, N) shifted emissions ``bsh``. Lane k starts from
    the model's ``terminal`` value at every entry at its last frame
    lengths[k]-1; its rows after that are padding. Slice t is divided by
    the (T, L) ``norms`` at t or, when ``norms`` is None, by its own
    maximum. For order 2, slice 0 is 0.
    """
    T, L = bsh.shape[:2]
    order = stack.order
    weights = bsh
    if order == 2:   # trans2 * b at each entry's successors, every frame at once
        _, states, at, ok = stack.entries.back
        weights = _gathered(stack.trans2, at, ok) * bsh.take(states, axis=2)
    if norms is not None:
        norms = norms[..., None]
    terminal = np.full((1, 1), terminal)   # an array: the rescale divides by u.max
    ends = {}   # frame -> the lanes whose last frame it is
    for k, n in enumerate(lengths):
        ends.setdefault(n - 1, []).append(k)
    beta = np.empty((T, L, len(stack.entries.flat)))
    u = terminal
    for t in range(T - 1, order - 2, -1):
        if t < T - 1:
            u = _back_step(stack, weights[t + 1], beta[t + 1])
            if t in ends:
                u[ends[t]] = terminal
        np.divide(u, u.max(1, keepdims=True) if norms is None else norms[t], beta[t])
    if order == 2:
        beta[0] = 0.0
    return beta


class _Lane(NamedTuple):
    """One utterance's share of a _lanes pass: its (T, P) forward and
    backward tables over the pass's entries (``beta`` None without the
    backward pass), its (T,) slice log normalizers and emission shifts, and
    its (T, N) shifted emissions, log emission densities and component
    log-densities (None for symbol tables)."""

    alpha: np.ndarray
    beta: np.ndarray | None
    log_norms: np.ndarray
    shifts: np.ndarray
    bsh: np.ndarray
    logb: np.ndarray
    comp: np.ndarray | None


def _lanes(model, xs, names, backward=True):
    """Forward tables, with backward tables when ``backward``, of the
    utterances ``xs`` under ``model``, run as the lanes of one stacked pass.
    Each utterance is non-empty and already converted by the emission kind's
    observation rule; ``names`` are their names for errors (None: unnamed).

    Returns the _Entries that the tables are over (see
    _ModelStack.entries) and a _Lane per utterance. When utterances fail,
    raises the error the first of them raises on its own.
    """
    kind = type(model.emissions[0])
    try:
        logb, comp = kind._kernel(np.concatenate(xs), *model._emission_parameters)
    except ValueError as err:   # the kernel's check of the frames (dimension, symbol range)
        if len(xs) == 1:
            raise ValueError(_named(str(err), names[0])) from None
        for x, name in zip(xs, names):   # one by one: the first utterance that fails raises its own error
            _lanes(model, [x], [name], backward=False)
        raise
    lengths = np.array([len(x) for x in xs])
    starts = np.cumsum(lengths) - lengths
    T, L = lengths.max(), len(xs)
    lane = np.repeat(np.arange(L), lengths)
    padded = np.zeros((T, L, model.n_states))   # padding: emission 1, shift 0
    padded[np.arange(len(logb)) - starts[lane], lane] = logb
    errors = _bad_densities(padded)
    bsh, shifts = _shifted_emissions(padded)
    stack = _ModelStack((model,))
    alpha, log_norms = _forward(stack, bsh, shifts, errors, lengths)
    _raise_first(errors, names)
    beta = None
    if backward:
        norms = np.exp(log_norms.T - shifts)
        norms[np.arange(T)[:, None] >= lengths] = 1.0
        terminal = 1.0 / model.n_states if model.mask.kind == "circular" else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            beta = _backward(stack, bsh, lengths, terminal, norms)
            if not beta.max() < np.inf:   # an inf or NaN in some lane: see "Numerical regime"
                lost = np.flatnonzero(~np.isfinite(beta).all(axis=(0, 2)))
                beta[:, lost] = _backward(stack, bsh[:, lost], lengths[lost], terminal)
    lanes = []
    for k, (n, start) in enumerate(zip(lengths, starts)):
        rows = slice(start, start + n)
        lanes.append(_Lane(alpha[:n, k], None if beta is None else beta[:n, k], log_norms[k, :n],
                           shifts[:n, k], bsh[:n, k], logb[rows], None if comp is None else comp[rows]))
    return stack.entries, lanes


def _forward_backward(model, obs, backward=True):
    """One model's forward lattice, with its backward table when
    ``backward``: the one-lane case of _lanes, its (T, P) tables laid out
    as (T, N...) slices. Where the entries do not fill the slice, they are
    scattered into slices of zeros, as the steps over all pairs leave
    them, but in two backward slices: the last holds the terminal value,
    divided as the others, at every pair; and a slice that is NaN at every
    entry (a rescaled rerun whose slice maximum underflowed to 0, and
    every slice before it) is NaN at every pair."""
    x, name = _checked(type(model.emissions[0]), obs)
    entries, (lane,) = _lanes(model, [x], [name], backward)
    alpha, beta = lane.alpha, lane.beta
    n, flat = model.n_states**model.order, entries.flat
    if len(flat) < n:
        alpha = np.zeros((len(x), n))
        alpha[:, flat] = lane.alpha
        if backward:
            full = np.isnan(lane.beta).all(axis=1)
            full[-1] = len(x) > 1
            beta = np.zeros((len(x), n))
            beta[:, flat] = lane.beta
            beta[full] = lane.beta[full, :1]   # a NaN keeps its bits
    shape = (len(x),) + (model.n_states,) * model.order
    return TrellisLattice(
        order=model.order,
        alpha=alpha.reshape(shape),
        slice_log_norms=lane.log_norms,
        log_likelihood=float(lane.log_norms.sum()),
        beta=None if beta is None else beta.reshape(shape),
        emission_shifts=lane.shifts,
    )


def _log(p):
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(p), -np.inf)


def _allowed_first(ok):
    """The (K, C) table whose column c lists, in ascending order, the rows
    at which column c of the (R, C) boolean ``ok`` is True, padded after
    them with rows at which it is not, and ``ok`` at those places. K is
    the longest list, and at least 1."""
    rows = np.argsort(~ok, axis=0, kind="stable")[:max(ok.sum(axis=0).max(), 1)]
    return rows, np.take_along_axis(ok, rows, axis=0)


@lru_cache(maxsize=32)
def _slice_entries(order, N, *patterns):
    """The _Entries of one zero pattern, given as the bytes of boolean
    arrays (order 2: of trans1, then of trans2), built once per pattern.

    The entries are, for order 1, all N states; for order 2 the pairs
    (j, k) that ``trans1`` allows, that some allowed triple (i, j, k)
    enters or that some allowed triple (j, k, l) leaves, or pair (0, 0)
    when there is none. A left-to-right or ring model's entries are its
    ``allowed1`` pairs. Every other pair's forward and backward values are
    0 at every frame but a lane's last backward slice, which holds the
    terminal value at every pair, and its best score is -inf. An entry's
    predecessors (successors) are the states of the allowed transitions
    into (out of) it, whose own entries are among these; K is the longest
    such list, and at least 1. Shorter lists are padded with place 0 and
    moves the pattern does not allow."""
    allowed = np.frombuffer(patterns[-1], dtype=bool).reshape(N, -1)   # [i, the flat entry i moves to]
    if order == 1:   # order 1's steps are products over all N states
        kept = np.ones(N, dtype=bool)
    else:
        leaving = allowed.reshape(N * N, N)   # [the pair a triple leaves, the state it moves to]
        kept = np.frombuffer(patterns[0], dtype=bool) | allowed.any(axis=0) | leaving.any(axis=1)
    flat = np.flatnonzero(kept) if kept.any() else np.zeros(1, dtype=np.int64)
    place = np.zeros(N**order, dtype=np.intp)
    place[flat] = np.arange(len(flat))
    # [i, p]: the flat entry a move from state i into entry p leaves (order 2: pair (i, j) of (j, k))
    source = np.arange(N)[:, None] * N ** (order - 1) + flat // N
    states, ok = _allowed_first(allowed[:, flat])
    steps = ((np.where(ok, place[np.take_along_axis(source, states, axis=0)], 0), states * N**order + flat, ok),)
    back = None
    if order == 2:
        steps = ((flat[None] // N, flat[None], np.ones((1, len(flat)), dtype=bool)),) + steps
        states, ok = _allowed_first(leaving[flat].T)
        back = (np.where(ok, place[flat % N * N + states], 0), states, flat * N + states, ok)
    ending, ok = _allowed_first(flat[:, None] % N == np.arange(N))
    at = np.flatnonzero(allowed)   # the allowed moves, in the last transition array
    moves = (at, place[at // N], place[at % N**order], at % N)
    entries = _Entries(flat, flat % N, place, np.where(ok, ending, len(flat)), steps, back, moves,
                       _RowSums(allowed.size, at), _RowSums(N**order, flat))
    for array in itertools.chain(entries[:4], *steps, back or (), moves):
        array.setflags(write=False)
    return entries


class _RowSums:
    """Sums of rows of ``n`` values that are zero except at the sorted
    positions ``flat``, from the (F, K) values at those positions (of any
    layout: they are copied into the sum's own rows or buffer); each is
    bitwise the np.sum of its whole row.

    np.sum adds a contiguous row pairwise, the order models._pairwise_sum
    follows, and adds the result to an initial 0.0. A row of up to 128
    values is one pairwise block, and is summed that way, scattered into a
    row of zeros. A longer row follows a plan of the same additions in the
    same order, with every addition of an all-zero part left out: adding
    a zero changes at most the sign of a zero sum, and the closing
    addition of 0.0 makes every zero +0.0, as np.sum's initial 0.0 does.
    The plan takes its additions a level (of depth in the tree) at a time
    over all frames, on a (width, F) buffer: the values in the first K
    rows, each partial sum in a row of its own after them. Either way a
    frame takes ``width`` values of buffer.
    """

    def __init__(self, n, flat):
        self.n, self.flat, self.levels, self.width = n, flat, None, n
        if n <= 128 or not len(flat):
            return
        k = len(flat)
        leaf = dict(zip(flat.tolist(), range(k)))
        pairs = []   # the operands of the additions; addition i gives node k + i

        def add(a, b):
            if a is None or b is None:
                return b if a is None else a
            pairs.append((a, b))
            return k + len(pairs) - 1

        def run(total, span):
            for p in span:
                total = add(total, leaf.get(p))
            return total

        def block(lo, m):
            """The node of numpy's pairwise sum of the m > 64 values from
            position lo (None when all of them are zero)."""
            if m > 128:
                half = m // 2 - m // 2 % 8
                return add(block(lo, half), block(lo + half, m - half))
            end = lo + m - m % 8
            r = [run(None, range(lo + j, end, 8)) for j in range(8)]
            total = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
            return run(total, range(end, lo + m))

        root = block(0, n)
        depth = [0] * k
        for a, b in pairs:
            depth.append(1 + max(depth[a], depth[b]))
        nodes = sorted(range(k, len(depth)), key=depth.__getitem__)
        row = list(range(k)) + [0] * len(pairs)
        for r, v in enumerate(nodes, k):
            row[v] = r
        self.levels, self.width, self.root = [], len(depth), row[root]
        start = k
        for _, level in itertools.groupby(nodes, depth.__getitem__):
            operands = np.array([[row[v] for v in pairs[u - k]] for u in level]).T
            self.levels.append((slice(start, start + operands.shape[1]), *operands))
            start += operands.shape[1]

    def __call__(self, terms):
        if self.levels is None:
            rows = np.zeros((len(terms), self.n))
            rows[:, self.flat] = terms
            return rows.sum(axis=1)
        buf = np.empty((self.width, len(terms)))
        buf[:len(self.flat)] = terms.T
        for out, left, right in self.levels:
            np.add(buf[left], buf[right], out=buf[out])
        return buf[self.root] + 0.0


def _max_plus(order, steps, dp, frames, ptr=None, peaks=None):
    """The max-plus recursion from frame 0's (S, N) scores ``dp`` over the
    (T, S, P) log-densities ``frames`` at each entry's last state, with
    ``steps`` (places, log-transitions) per kind of step. Writes each
    frame's back-pointers to the (T, S, P) ``ptr`` and each slice's
    maximum to the (S, T) ``peaks`` when given; returns the last slice."""
    if peaks is not None:
        peaks[:, 0] = dp.max(axis=1)
    for t in range(1, len(frames)):
        places, logv = steps[min(t, order) - 1]
        cand = dp.take(places, axis=1)
        cand += logv
        if ptr is not None:
            np.argmax(cand, 1, ptr[t])   # positional out=: this loop runs once per frame
        dp = cand.max(axis=1)
        dp += frames[t]
        if peaks is not None:
            peaks[:, t] = dp.max(axis=1)
    return dp


def _viterbi(stack, logb, errors, paths=True):
    """Max-plus twin of _forward over the stack's _Entries, with a
    back-pointer from each entry to its best predecessor's row in the
    step's table. Returns the (S, T) best paths and their (S,) joint
    log-probabilities. A model whose best score is -inf at frame t gets
    ImpossibleObservationError(t) in ``errors``. Without ``paths`` it
    keeps no back-pointers and returns None for the paths; the scores are
    the same.

    Frame 0's slice is the N states for both orders. Each later frame takes
    every entry's best over its allowed predecessors (order 2's frame 1:
    its one first-step source), then adds the log-density of the state the
    entry ends in. Every candidate is the one addition the step over all
    N predecessors (or all N^2 pairs) makes, the maximum is exact, and
    every entry left out is -inf at every frame, so every score and
    failing frame is bitwise that step's. Predecessors are in ascending
    order and the entries in row-major order, so ties still break toward
    the lowest index, at every step and at the final pair.

    A slice that is all -inf stays so, so a model whose final score is
    finite never had one: the recursion runs again, keeping each slice's
    maximum, only for the models whose score is -inf, to find their first
    such frame."""
    T, S, _ = logb.shape
    order = stack.order
    entries = stack.entries
    frames = logb.take(entries.last, axis=2)
    start = _log(stack.initial) + logb[0]
    ptr = np.empty((T, S, len(entries.last)), dtype=np.int64) if paths else None
    dp = _max_plus(order, [(places, logs) for places, _, logs in stack.steps], start, frames, ptr)
    rows = np.arange(S)
    best = np.argmax(dp, axis=1)
    scores = dp[rows, best]
    dead = np.flatnonzero(np.isneginf(scores))
    if dead.size:
        peaks = np.empty((len(dead), T))
        _max_plus(order, [(places, logs[dead]) for places, _, logs in stack.steps],
                  start[dead], frames[:, dead], peaks=peaks)
        hits = np.zeros((S, T), dtype=bool)
        hits[dead] = np.isneginf(peaks)
        _fail_first(errors, hits)
    if not paths:
        return None, scores
    states = np.empty((S, T), dtype=np.int64)
    place = best
    for t in range(T - 1, 0, -1):
        states[:, t] = entries.last[place]
        place = entries.steps[min(t, order) - 1][0][ptr[t, rows, place], place]
    states[:, 0] = place   # frame 0's slice is the states
    return states, scores


def _single_path(model, obs) -> StatePath:
    """Best path of one model (viterbi1, viterbi2)."""
    stack = _ModelStack((model,))
    logb, errors, name = _emission_terms(stack, obs)
    states, log_probs = _viterbi(stack, logb, errors)
    _raise_first(errors, [name])
    return StatePath(states[0], float(log_probs[0]))


# ---------------------------------------------------------------------------
# scoring many models
# ---------------------------------------------------------------------------

# Identification scores; the first is the default everywhere.
SCORING_MODES = ("forward", "viterbi")


def score_models(models, obs, scoring: str = SCORING_MODES[0]) -> list:
    """Score ``obs`` under each of ``models``: the forward log-likelihood
    (as forward1/forward2 give it) or the best-path log-probability (as
    viterbi1/viterbi2 give it), bit for bit.

    Models that share order, state count and emission kind and shape are
    scored together: one emission evaluation and one recursion over a
    leading model axis. Returns the scores in the order of ``models``. When
    models fail, raises the error that the first of them, scored alone,
    raises.
    """
    return _score_groups(_stack_groups(models), obs, scoring)


def _stack_groups(models) -> list:
    """``models`` grouped by _stack_key in order of first appearance: per
    group, its members' indices in ``models`` and their _ModelStack. A
    caller that scores the same models often keeps the groups (see
    SpeakerRegistry.identify), and with them each stack's tables."""
    groups: dict = {}
    for i, model in enumerate(models):
        groups.setdefault(_stack_key(model), []).append(i)
    return [(members, _ModelStack([models[i] for i in members])) for members in groups.values()]


def _score_groups(groups, obs, scoring) -> list:
    """score_models' scores of the models stacked in ``groups`` (see
    _stack_groups), in model order."""
    if scoring not in SCORING_MODES:
        raise ValueError(f"scoring must be one of {SCORING_MODES}, got {scoring!r}")
    name = _utterance(obs)[1]
    n_models = sum(len(members) for members, _ in groups)
    scores = [None] * n_models
    errors = [None] * n_models
    for members, stack in groups:
        if any(err is not None for err in errors[:members[0]]):
            break   # an earlier model fails: later groups would not be scored
        try:
            values, failed = _stack_scores(stack, obs, scoring)
        except ValueError as err:   # a check of obs, raised by the group's first model
            errors[members[0]] = err
            continue
        for i, value, err in zip(members, values, failed):
            scores[i], errors[i] = value, err
    _raise_first(errors, [name] * n_models)
    return scores


def _stack_scores(stack, obs, scoring):
    """(scores, errors) of every model of ``stack``; checks of ``obs`` that
    fail raise."""
    logb, errors, _ = _emission_terms(stack, obs)
    if scoring == "forward":
        log_norms = _forward(stack, *_shifted_emissions(logb), errors)[1]
        return log_norms.sum(axis=1).tolist(), errors
    return _viterbi(stack, logb, errors, paths=False)[1].tolist(), errors


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def forward1(model: Hmm1Model, obs) -> TrellisLattice:
    """Scaled forward pass. alpha[t] is the normalized joint of frames
    0..t and the state at t; log_likelihood is exact (computed from the
    per-slice normalizers in the log domain)."""
    return _forward_backward(model, obs, backward=False)


def forward_backward1(model: Hmm1Model, obs) -> TrellisLattice:
    """Forward pass plus backward table in one lattice."""
    return _forward_backward(model, obs)


def viterbi1(model: Hmm1Model, obs) -> StatePath:
    """Most probable state path (log-domain dynamic programming).

    Ties break toward the lowest state index, both at the final frame and
    at every backtrack step.
    """
    return _single_path(model, obs)


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def forward2(model: Hmm2Model, obs) -> TrellisLattice:
    """Scaled forward pass over state pairs.

    alpha[t] (t >= 1) is the normalized joint of frames 0..t and the pair
    (state at t-1, state at t). A single-frame utterance degenerates to the
    initial/emission product.
    """
    return _forward_backward(model, obs, backward=False)


def forward_backward2(model: Hmm2Model, obs) -> TrellisLattice:
    return _forward_backward(model, obs)


def viterbi2(model: Hmm2Model, obs) -> StatePath:
    """Most probable state path under the second-order model.

    The pair-state recursion starts from
    d_1(j, k) = initial_j b_j(O_0) a1_jk b_k(O_1) and maximizes over the
    predecessor of each pair. Ties break toward the lowest predecessor
    index, and the final pair is chosen in row-major order (lowest
    second-to-last state, then lowest last state).
    """
    return _single_path(model, obs)


# ---------------------------------------------------------------------------
# pair-state embedding (second order as a first-order chain over pairs)
# ---------------------------------------------------------------------------

def embed_pair_states(model: Hmm2Model, obs):
    """Re-express a second-order model as a first-order chain on state pairs.

    Composite state j*N+k stands for (state j at the previous frame, state
    k at the current frame). Its transition matrix is
    a'[(i,j),(j',k)] = [j == j'] * trans2[i,j,k], its emission is that of
    the current state k, and its initial vector folds in the first frame:
    initial'[(j,k)] = initial_j * b_j(O_0) * trans1[j,k]. Run the embedded
    model on obs[1:]; its forward/Viterbi results then match forward2 and
    viterbi2 on the full sequence (slice t of the embedded chain is the
    pair occupying frames t and t+1).

    The embedded initial vector is intentionally unnormalized (it carries
    emission weight), so ``validate`` will flag the embedded model; it is a
    computational device, not a modeling topology. Returns
    (embedded_model, obs_tail).
    """
    x = np.asarray(_utterance(obs)[0])
    if x.shape[0] < 2:
        raise ValueError("pair-state embedding needs at least 2 frames")
    N = model.n_states
    logb0 = log_emission_matrix(model, x[:1])[0]
    b0 = np.exp(logb0)
    init = (model.initial * b0)[:, None] * model.trans1   # (j, k)
    trans = np.zeros((N, N, N, N))
    for j in range(N):
        trans[:, j, j, :] = model.trans2[:, j, :]
    trans = trans.reshape(N * N, N * N)
    allowed = trans > 0.0
    dead = ~allowed.any(axis=1)
    if dead.any():
        idx = np.flatnonzero(dead)
        trans[idx, idx] = 1.0      # unreachable composite rows; keep rows stochastic
        allowed[idx, idx] = True
    mask = custom_topology(allowed)
    emissions = tuple(model.emissions[k] for j in range(N) for k in range(N))
    embedded = Hmm1Model(mask, init.reshape(-1), trans, emissions)
    return embedded, x[1:]


def decode_pair_path(composite_states, n_states: int) -> np.ndarray:
    """Map a composite-state path from an embedded chain back to states.

    A length-(T-1) composite path yields the length-T state path: the first
    composite provides both of its states, later composites contribute
    their current state.
    """
    comp = np.asarray(composite_states, dtype=np.int64)
    out = np.empty(comp.shape[0] + 1, dtype=np.int64)
    out[0] = comp[0] // n_states
    out[1:] = comp % n_states
    return out
