"""Scaled forward/backward, Viterbi and joint-probability evaluation.

One engine serves both orders. A second-order chain is a first-order chain
over state pairs (see embed_pair_states), so each recursion runs once over
a slice holding the last ``order`` states: an (N,) vector for order 1, an
(N, N) pair matrix for order 2. Only the step that carries a slice one frame
on depends on the order: ``prev @ trans``; or, for order 2, ``trans1`` at
the first step and a contraction with ``trans2`` after it.

Order 2's forward step with ``trans2`` sums, for each pair (j, k), only
over the predecessors i that some model of the stack allows into j: a
(K, N) table built once per _ModelStack (``into``, the table Viterbi
reads too), with the transition values gathered at its entries. The
backward step sums each pair (i, j) over the successors k of the twin
table of the transposed ``trans2`` (``out_of``), as (trans2 * b) * beta,
the dense contraction's association. The skipped terms are exact zeros
and the kept ones are added in ascending order, so every slice has the
dense contraction's bits. A step takes this path when its table is narrow,
2K <= N: a left-to-right or ring model has K = 3, so from N = 6 on; a
wider table costs more to gather than it saves (measured crossover N = 6;
at N = 24 the gathered steps are 4-6 times faster). Every step returns a
C-contiguous slice: the next frame's normalizer sums it in memory order,
and a slice gathered by fancy indexing in another layout moves the last
bit of trained models.

The forward and Viterbi recursions also run over a leading model axis, so
score_models scores every candidate model of an utterance in one pass.
Forward-backward runs that axis as "lanes", the utterances of one model,
so that a Baum-Welch E-step makes one emission call, one forward and one
backward pass per iteration. The single-model, single-utterance functions
are the one-model and one-lane cases of the same code. Viterbi scoring
(score_models) runs the max-plus recursion without back-pointers, since
it reads only the best score; viterbi1/viterbi2 keep them to decode the
path. For both orders, the max-plus step with the last transition array
(``trans``; ``trans2`` after order 2's first step) visits only the
predecessors each state is allowed (by some model of the stack; the
stack's ``into`` table at any width): every candidate is the same single
addition as over all N predecessors and the maximum is exact, so scores
and paths keep their bits, and the allowed predecessors are taken in
ascending order, so ties still break toward the lowest index.

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
A lane with an inf or NaN anywhere in its backward table is run again
with each slice divided by its own maximum instead. The dense step carries
an inf or NaN to every entry of every earlier slice; the step over allowed
successors carries it only along allowed transitions, so the whole table
is tested, not only the first slice. Either way the lanes run again are
the same, and so are the bits of the others. Posteriors are per-frame
ratios, so they do not depend on which divisor a slice had.

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

from dataclasses import dataclass, field
from functools import cached_property
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
    "likelihood_via_transition",
    "forward2",
    "forward_backward2",
    "viterbi2",
    "sequence_log_prob",
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
# so its results are bitwise those of running it alone:
# each slice's normalizer is summed over that model's own contiguous slice,
# log normalizers are summed along a contiguous T axis, and the order-1
# step is a (S, 1, N) @ (S, N, N) matmul. A model that fails records its
# error in ``errors``; the NaN (forward) or -inf (Viterbi) it carries from
# then on stays in its own slices.
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
    def into(self):
        """The _Table of the last transition array (``trans``; ``trans2``
        for order 2) whose column j lists the states i allowed into j:
        the one table _forward's and _viterbi's steps read, built on first
        use."""
        last = getattr(self, _TRANSITION_FIELDS[self.order][-1])
        pred, middle = _predecessors(last), np.arange(self.n_states)
        flat = np.ravel_multi_index((pred, middle)[:self.order], (self.n_states,) * self.order)
        return _Table(pred, flat, np.ascontiguousarray(last[:, pred, middle]), 2 * len(pred) <= self.n_states)

    @cached_property
    def out_of(self):
        """Order 2's twin of ``into`` for _backward's step: the _Table of the
        transposed ``trans2`` (column j lists the states k that some allowed
        triple (i, j, k) moves to), its values trans2[s, i, j, k] at
        [s, q, i, j]."""
        succ, middle = _predecessors(self.trans2.transpose(0, 3, 2, 1)), np.arange(self.n_states)
        values = np.ascontiguousarray(self.trans2[:, :, middle, succ].transpose(0, 2, 1, 3))
        return _Table(succ, middle * self.n_states + succ, values, 2 * len(succ) <= self.n_states)


class _Table(NamedTuple):
    """The allowed entries of a stack's transition array, laid out for a
    step: the (K, N) table ``states`` of _predecessors, the flat index in
    a slice of each entry's source (or target), the array's (S, K, N, ...)
    values there, C-contiguous, and whether the order-2 forward or
    backward step visits only these entries: when the table is ``narrow``,
    2K <= N. A wider table costs more to gather than the one dense
    contraction saves (measured crossover: N = 6 at K = 3)."""

    states: np.ndarray
    flat: np.ndarray
    values: np.ndarray
    narrow: bool


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
    """Carry the (S, R, N) slices at t-1 to frame t, before weighting by
    frame t's emissions. R is 1 for order 1 and for order 2's first-frame
    vectors, N for pair tables. Order 2's step with ``trans2`` sums over
    each pair's allowed predecessors (``stack.into``) when that table is
    narrow."""
    if stack.order == 1:
        return prev @ stack.trans
    if t == 1:
        return prev.transpose(0, 2, 1) * stack.trans1
    table = stack.into
    if not table.narrow:
        return np.einsum("sij,sijk->sjk", prev, stack.trans2)
    # take() of the flat slice gives a C-contiguous (S, K, N), and so a C-contiguous result
    return np.einsum("sqj,sqjk->sjk", prev.reshape(len(prev), -1).take(table.flat, axis=1), table.values)


def _back_step(stack, b, beta):
    """Backward twin of _step: the (S, N...) slices at frame t from frame
    t+1's (S, N) shifted emissions ``b`` and (S, N...) backward slices
    ``beta``, before normalization. Order 2 sums over each pair's allowed
    successors (``stack.out_of``) when that table is narrow, with the
    association (trans2 * b) * beta of the dense contraction."""
    if stack.order == 1:
        return np.matmul(stack.trans, (b * beta)[..., None])[..., 0]
    table = stack.out_of
    if not table.narrow:
        return np.einsum("sijk,sk,sjk->sij", stack.trans2, b, beta)
    return np.einsum("sqij,sqj,sqj->sij", table.values, b.take(table.states, axis=1),
                     beta.reshape(len(beta), -1).take(table.flat, axis=1))


def _forward(stack, bsh, shifts, errors, lengths=None):
    """Scaled forward pass of every model (or lane) of ``stack`` over the
    (T, S, N) shifted emissions ``bsh`` and their (T, S) ``shifts``.

    Returns (alpha, log_norms): the (T, S, N...) tables and the (S, T)
    slice log normalizers. A model whose slice sums to 0 at frame t gets
    ImpossibleObservationError(t) in ``errors``; its later values are NaN.
    With ``lengths``, lane k's frames from lengths[k] on are padding and
    record no error.
    """
    T, S, N = bsh.shape
    order = stack.order
    alpha = np.zeros((T, S) + (N,) * order)
    slices = alpha.reshape(T, S, -1, N)
    norms = np.empty((T, S, 1, 1))
    b = bsh[:, :, None, :]
    a = stack.initial[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(T):
            if t:
                a = _step(stack, t, a)
            u = a * b[t]
            # positional out= arguments: this loop runs once per frame
            s = np.add.reduce(u, (1, 2), None, norms[t], True)
            # order 2's first-frame vectors have no slot in the pair tables
            a = np.divide(u, s, slices[t]) if t or order == 1 else u / s
        norms = norms.reshape(T, S).T.copy()
        log_norms = np.log(norms)
    log_norms += shifts.T
    dead = norms <= 0.0
    if lengths is not None:
        dead &= np.arange(T) < lengths[:, None]
    _fail_first(errors, dead)
    return alpha, log_norms


def _backward(stack, bsh, lengths, terminal, norms=None):
    """Scaled (T, L, N...) backward tables of L lanes of the one-model
    ``stack`` on the time axis of their forward pass, from its (T, L, N)
    shifted emissions ``bsh``. Lane k starts from the model's ``terminal``
    value in every state at its last frame lengths[k]-1; its rows after
    that are padding. Slice t is divided by the (T, L) ``norms`` at t or,
    when ``norms`` is None, by its own maximum. For order 2, slice 0 is 0.
    """
    T, L, N = bsh.shape
    order = stack.order
    axes = tuple(range(1, order + 1))
    if norms is not None:
        norms = norms.reshape((T, L) + (1,) * order)
    terminal = np.full((1,) * (order + 1), terminal)   # an array: the rescale divides by u.max
    ends = {}   # frame -> the lanes whose last frame it is
    for k, n in enumerate(lengths):
        ends.setdefault(n - 1, []).append(k)
    beta = np.empty((T, L) + (N,) * order)
    u = terminal
    for t in range(T - 1, order - 2, -1):
        if t < T - 1:
            u = _back_step(stack, bsh[t + 1], beta[t + 1])
            if t in ends:
                u[ends[t]] = terminal
        np.divide(u, u.max(axes, keepdims=True) if norms is None else norms[t], beta[t])
    if order == 2:
        beta[0] = 0.0
    return beta


def _lanes(model, xs, names, backward=True):
    """Forward lattices, with backward tables when ``backward``, of the
    utterances ``xs`` under ``model``, run as the lanes of one stacked pass.
    Each utterance is non-empty and already converted by the emission kind's
    observation rule; ``names`` are their names for errors (None: unnamed).

    Returns, per utterance, its lattice and its (T_k, N...) shifted
    emissions, log emission densities and component log-densities (None
    for symbol tables). When utterances fail, raises the error the first of
    them raises on its own.
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
                lost = np.flatnonzero(~np.isfinite(beta.reshape(T, L, -1)).all(axis=(0, 2)))
                beta[:, lost] = _backward(stack, bsh[:, lost], lengths[lost], terminal)
    lanes = []
    for k, (n, start) in enumerate(zip(lengths, starts)):
        lat = TrellisLattice(
            order=model.order,
            alpha=alpha[:n, k],
            slice_log_norms=log_norms[k, :n],
            log_likelihood=float(log_norms[k, :n].sum()),
            beta=None if beta is None else beta[:n, k],
            emission_shifts=shifts[:n, k],
        )
        rows = slice(start, start + n)
        lanes.append((lat, bsh[:n, k], logb[rows], None if comp is None else comp[rows]))
    return lanes


def _forward_backward(model, obs, backward=True):
    """One model's forward lattice, with its backward table when
    ``backward``: the one-lane case of _lanes."""
    x, name = _checked(type(model.emissions[0]), obs)
    return _lanes(model, [x], [name], backward)[0][0]


def _log(p):
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(p), -np.inf)


def _predecessors(last):
    """(K, N) table whose column j lists, in ascending order, the states i
    from which some model of the (S, N, ..., N) last transition array
    allows a transition into j (order 2: a triple (i, j, k)); an entry
    allows one when it is not 0. K is the longest such list, and at least
    1. Shorter columns are padded with states from which no model allows
    one, whose transitions are all 0 (log-transitions -inf)."""
    allowed = (last != 0.0).any(axis=0)
    allowed = allowed.reshape(allowed.shape[:2] + (-1,)).any(axis=2)
    width = max(allowed.sum(axis=0).max(), 1)
    return np.argsort(~allowed, axis=0, kind="stable")[:width]


def _viterbi(stack, logb, errors, paths=True):
    """Max-plus twin of _forward with back-pointers from each full slice to
    the state it drops. Returns the (S, T) best paths and their (S,) joint
    log-probabilities. A model whose slice is all -inf at frame t gets
    ImpossibleObservationError(t) in ``errors``. Without ``paths`` it keeps
    no back-pointers and returns None for the paths; the scores are the
    same.

    The step with the last transition array (every step for order 1, every
    step after the first for order 2) takes the maximum only over each
    state's allowed predecessors (the stack's ``into``). Every candidate is the
    one addition the step over all N predecessors makes, and the maximum
    is exact, so every score is bitwise that step's; the predecessors are
    in ascending order, so ties still break toward the lowest index."""
    T, S, N = logb.shape
    order = stack.order
    pred, sources, values, _ = stack.into
    logtrans = [_log(getattr(stack, name)) for name in _TRANSITION_FIELDS[order][:-1]]
    logtrans.append(_log(values))   # (S, K, j, ...)
    pad = (None,) * (order - 1)   # a new axis where order 2's slices have one more
    sources, middle = sources[(...,) + pad], np.arange(N)
    frames = logb[(slice(None),) * 2 + pad]
    peaks = np.empty((S, T))
    if paths:
        ptr = np.empty((S, T) + (N,) * order, dtype=np.int64)
    dp = _log(stack.initial) + logb[0]
    peaks[:, 0] = dp.max(axis=1)
    for t in range(1, T):
        if t < order:
            dp = dp[..., None] + logtrans[0]             # order 2's first pair table
        else:
            cand = dp.reshape(S, -1).take(sources, axis=1) + logtrans[-1]
            if paths:
                ptr[:, t] = np.argmax(cand, axis=1)
            dp = cand.max(axis=1)
        dp += frames[t]
        peaks[:, t] = dp.reshape(S, -1).max(axis=1)
    _fail_first(errors, np.isneginf(peaks))
    flat = dp.reshape(S, -1)
    best = np.argmax(flat, axis=1)
    rows = np.arange(S)
    if not paths:
        return None, flat[rows, best]
    ptr[:, order:] = pred[ptr[:, order:], middle[(...,) + pad]]   # from the place in pred to the state
    states = np.empty((S, T), dtype=np.int64)
    states[:, T - (dp.ndim - 1):] = np.stack(np.unravel_index(best, dp.shape[1:]), axis=1)
    for t in range(T - 1, order - 1, -1):
        states[:, t - order] = ptr[(rows, t) + tuple(states[:, t - order + 1:t + 1].T)]
    return states, flat[rows, best]


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


def likelihood_via_transition(model: Hmm1Model, obs, t: int) -> float:
    """Total observation probability, summed over the transition t -> t+1.

    Computes P(obs) = sum_ij alpha_t(i) a_ij b_j(O_{t+1}) beta_{t+1}(j)
    with unscaled tables, so it is meant for short sequences; the value is
    independent of t and equals exp(forward1 log-likelihood), which makes
    it a cross-check on the scaled pass. The terminal backward value is 1
    here for every topology (that is the convention under which the sum
    equals the total probability). ``t`` is a 0-based frame index with
    0 <= t <= T-2.
    """
    logb = log_emission_matrix(model, obs)
    T, N = logb.shape
    if not 0 <= t <= T - 2:
        raise IndexError(f"t = {t} outside [0, {T - 2}]")
    b = np.exp(logb)
    alpha = np.empty((T, N))
    alpha[0] = model.initial * b[0]
    for s in range(1, T):
        alpha[s] = (alpha[s - 1] @ model.trans) * b[s]
    beta = np.empty((T, N))
    beta[T - 1] = 1.0
    for s in range(T - 2, -1, -1):
        beta[s] = model.trans @ (b[s + 1] * beta[s + 1])
    return float(
        np.sum(alpha[t][:, None] * model.trans * (b[t + 1] * beta[t + 1])[None, :])
    )


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


def sequence_log_prob(model, obs, states) -> float:
    """Joint log-probability of ``states`` and ``obs`` under the model.

    For order 1 this is log of initial * prod(trans) * prod(emissions);
    for order 2 the first transition uses trans1 and later ones trans2.
    A topology-forbidden transition yields -inf (not an error).
    """
    logb = log_emission_matrix(model, obs)
    T = logb.shape[0]
    q = np.asarray(states, dtype=np.int64)
    if q.shape != (T,):
        raise ValueError(f"state path length {q.shape} != number of frames ({T},)")
    if q.size and (q.min() < 0 or q.max() >= model.n_states):
        raise ValueError("state index out of range")
    with np.errstate(divide="ignore"):
        total = float(np.log(model.initial[q[0]])) + float(logb[np.arange(T), q].sum())
        if isinstance(model, Hmm1Model):
            if T > 1:
                total += float(np.log(model.trans[q[:-1], q[1:]]).sum())
        else:
            if T > 1:
                total += float(np.log(model.trans1[q[0], q[1]]))
            if T > 2:
                total += float(np.log(model.trans2[q[:-2], q[1:-1], q[2:]]).sum())
    return total


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
