"""Scaled forward/backward and Viterbi passes, and state-path decoding.

One engine serves both orders. A second-order chain is a first-order chain
over state pairs (see embed_pair_states), so each recursion runs once over
a slice holding the last ``order`` states. It is laid out over the P
entries of that slice that can ever hold a nonzero forward or backward
value or a finite best score (_Entries): for order 1 the N states (P =
N); for order 2 the pairs some model of the stack can reach or leave (69
of 576 for a 24-state left-to-right model, 72 for a ring). Every other
pair is 0 in every forward and backward slice, but the last backward
slice of a row, and -inf in every Viterbi slice. The layout depends only
on the zero pattern of the transition arrays, so it is built once per
pattern and shared read-only by every stack of that pattern
(_slice_entries), with the tables of the E-step's posteriors: the moves
the last transition array allows and the plans of its sums (_RowSums).
A stack only gathers its transition values.

Only the step that carries a slice one frame on depends on the order.
Order 1's forward and backward steps are ``prev @ trans`` and its twin.
Order 2's take each entry's terms over its allowed predecessors (the
forward step: ``trans1`` at the first step, ``trans2`` after it) or
successors (the backward step, as (trans2 * b) * beta, the dense
contraction's association), from (K, P) tables of their places in the
previous (next) slice with the transition values gathered there once per
stack. The skipped terms are exact zeros and the kept ones are added in
ascending order, so every entry has the bits of the contraction over all
N^2 pairs. Each forward normalizer is the sum of the whole slice (see
_forward). forward2 and forward_backward2 scatter the (T, P) tables into
(T, N, N) pair tables of zeros; the E-step reads them as they are.

Every recursion runs over the rows of one pass (_RowPass): each row is
one model of a stack on one utterance. score_models runs every candidate
of an utterance in one pass, and a Baum-Welch E-step all of one model's
utterances. Each Viterbi step takes every entry's maximum over its
allowed predecessors only: every candidate is the addition the step over
all N predecessors makes, the maximum is exact and every pair left out
is -inf, so scores, paths and failing frames keep their bits.
Predecessors are in ascending order and the entries row-major, so ties
still break toward the lowest index.

The E-step's posteriors (_RowPass.posteriors) are taken at the slice
entries and, for the last transition array (xi over ``trans``, eta over
``trans2``), at the moves it allows, over chunks of frames. Each frame's
normalizer is bitwise the sum of its whole slice or array (_RowSums), so
every total is bitwise that of the dense tensors.

Numerical regime
----------------
Forward and backward run in the linear domain: every alpha slice is divided
by its sum, and ``slice_log_norms[t]`` is the log of that sum plus the
frame's emission shift, so log_likelihood = sum_t slice_log_norms[t].
Viterbi is max-plus in the log domain. Before exponentiating, each frame's
log-densities are shifted by their maximum and the shift is folded back into
that frame's normalizer, so a frame whose densities are merely tiny never
looks impossible. The terminal backward slice is 1 for left-to-right
models and 1/N for circular models, each row taking its own model's;
reestimation ratios are invariant to that constant. Backward slice t is
divided by forward slice t's normalizer (in the shifted domain). On a
frame far from the model that normalizer can be so small (even
subnormal) that the division overflows. A row with an inf or NaN at any
entry of its backward table is run again with each slice divided by its
own maximum instead. The step over
allowed successors carries an inf or NaN only along allowed transitions,
so the whole table is tested; the first inf or NaN of a row is at an
entry (0 divided by a normalizer of 0 is NaN at every pair), so the rows
run again are those the steps over all pairs would run again, and the
bits of the others are theirs too. Posteriors are per-frame ratios, so
they do not depend on which divisor a slice had.

Every pass fails a row with ImpossibleObservationError at the first
frame whose forward normalizer is 0 (no state with incoming mass can emit
it; a frame with all densities -inf is shifted by 0, so it is one), or,
for Viterbi, whose best score is -inf. A +inf or NaN log-density (a zero
variance), or frames the emission kernel rejects (dimension, symbol
range), fail it with ValueError. A pass records each row's first error;
_raise_first raises the first of them, naming the utterance where it has
a name.

Rows of differing lengths share one time axis: entry t is every row's
frame t. Each row is padded after its last frame with log-densities of
0 (emissions of 1, shifts of 0); forward records no error there, Viterbi
reads each row's best score at its own last frame, and backward starts
each row from its terminal slice at that frame and gives its padding
normalizers of 1. A row's own frames never read another row or a
padding entry, and every step computes each row as the one-row step
does: each normalizer sums the row's own contiguous slice, log
normalizers are summed along a contiguous T axis, and order 1's step is
a (R, 1, N) @ (R, N, N) matmul. So its alpha, beta, normalizers, scores
and failing frames are bitwise those of running it alone.

State indices are 0-based; frame indices are 0-based.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ImpossibleObservationError, _named
from .models import _TRANSITION_FIELDS, Hmm1Model, Hmm2Model, _pairwise_sum, custom_topology

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
    rows = _one_utterance(_ModelStack((model,)), obs)
    _raise_first(rows.errors, rows.names)
    return rows.logb[:, 0]


def _checked(kind, obs):
    """(x, name): ``obs`` converted and checked by the emission ``kind``'s
    observation rule, and its name (see _utterance); an empty utterance
    raises ValueError."""
    x, name = _utterance(obs)
    x = kind._observations(x, name)
    if x.shape[0] == 0:
        raise ValueError(_named("empty observation sequence", name))
    return x, name


def _densities(stack, x, name):
    """The kernel's (T, S·N) log densities and components of the frames
    ``x`` under every model of ``stack``, and None; or, when its frame check
    (dimension, symbol range) fails, (0, None, that ValueError, named)."""
    try:
        return *stack.emission._kernel(x, *stack.emission_parameters), None
    except ValueError as err:
        return np.zeros((len(x), stack.n_models * stack.n_states)), None, ValueError(_named(str(err), name))


def _bad_densities(logb):
    """Per row of the (T, R, N) log densities ``logb``, the ValueError a
    +inf or NaN density raises, else None. Such a row's densities are set
    to 0 so that it stays quiet in the recursions."""
    errors = [None] * logb.shape[1]
    bad = ~(logb < np.inf)   # +inf or NaN
    if bad.any():
        for k in np.flatnonzero(bad.any(axis=(0, 2))):
            what = "infinite" if np.isposinf(logb[:, k]).any() else "NaN"
            errors[k] = ValueError(f"emission density is {what} (zero variance?)")
            logb[:, k] = 0.0
    return errors


def _shifted_emissions(logb):
    """(bsh, shifts): the (T, R, N) log densities ``logb`` shifted per frame
    by their maximum, bsh[t, r] = exp(logb[t, r] - shifts[t, r]) in [0, 1].
    A frame whose densities are all -inf is shifted by 0, so its forward
    normalizer is 0 and _forward fails it ("Numerical regime")."""
    shifts = np.max(logb, axis=2)
    shifts[np.isneginf(shifts)] = 0.0
    return np.exp(logb - shifts[..., None]), shifts


def _fail_first(errors, hits):
    """Record, for each row without an error, ImpossibleObservationError
    at its first True in the (R, T) ``hits``."""
    for k in np.flatnonzero(hits.any(axis=1)):
        if errors[k] is None:
            errors[k] = ImpossibleObservationError(np.argmax(hits[k]))


def _raise_first(errors, names):
    """Raise the first error of ``errors`` (one entry per row, in order):
    the one that running the rows one by one would raise. An
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
# A pass (_RowPass) runs the S models of a _ModelStack on L utterances as
# R = L·S rows, row l·S + s being model s on utterance l: one
# emission-kernel call on the utterances' concatenated, already-checked
# frames, then _forward, _backward or _viterbi over the rows, with the
# stack's tables gathered per row once (_ModelStack.rows). A row that
# fails records its error in ``errors``; the NaN (forward) or -inf
# (Viterbi) it carries from then on stays in its own slices.


def _stack_key(model):
    """What models must share to be stacked: the order, the emission kind
    and the shapes of its stacked parameters (which hold the state count)."""
    return model.order, type(model.emissions[0]), tuple(p.shape for p in model._emission_parameters)


class _ModelStack:
    """S models with one _stack_key, their parameters stacked along a
    leading model axis: ``initial`` (S, N), each transition array of
    _TRANSITION_FIELDS (S, N, ...), the (S, 1) terminal backward values
    ``terminal`` (1, or 1/N for a ring), and ``emission_parameters``, each
    field of the emission kind ``emission`` stacked over the S·N states
    model by model ((S·N, M) weights, ...). A one-model stack views its
    model's arrays."""

    def __init__(self, models):
        first = models[0]
        self.order, self.n_states, self.n_models = first.order, first.n_states, len(models)
        self.emission = type(first.emissions[0])
        for name in ("initial",) + _TRANSITION_FIELDS[self.order]:
            setattr(self, name, _stacked([getattr(m, name)[None] for m in models]))
        self.terminal = np.array([[1.0 / m.n_states if m.mask.kind == "circular" else 1.0] for m in models])
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

    def rows(self, index):
        """For the recursions, the stack whose row r is model index[r]: its
        per-model arrays taken at ``index`` (``steps`` gathered anew)."""
        view = copy.copy(self)
        view.__dict__.pop("steps", None)
        view.entries, view.n_models = self.entries, len(index)
        for name in ("initial", "terminal") + _TRANSITION_FIELDS[self.order]:
            setattr(view, name, getattr(self, name)[index])
        return view


class _Entries(NamedTuple):
    """The layout of one zero pattern (see _slice_entries), read-only since
    stacks share it: the P entries of the slice (states for order 1, pairs
    for order 2) that can ever hold a nonzero forward or backward value or
    a finite best score, in ascending flat order. ``flat`` is each entry's
    flat index in the slice, ``last`` the state it ends in, ``place`` the
    place among the P of each of the N^order slice entries (0 off them),
    and ``ending`` the (K', N) places of the entries that end in each
    state, in ascending order, padded with place P. ``steps`` holds, per
    kind of forward step (order 2: with ``trans1``, then with ``trans2``),
    the (K, P) places in the previous slice of each entry's predecessors,
    in ascending state, the flat index of each move in the step's
    transition array and whether the pattern allows it (not at padding);
    ``back`` the same for order 2's backward step over successors, with
    their states after the places (None for order 1). For the E-step's
    posteriors, ``moves`` holds the moves the last transition array
    allows, in ascending order: their flat indices in it, the places of
    the entries they leave and enter, and their last states; and
    ``move_sums`` and ``slice_sums`` are the _RowSums of that array's rows
    and of slices."""

    flat: np.ndarray
    last: np.ndarray
    place: np.ndarray
    ending: np.ndarray
    steps: tuple
    back: tuple | None
    moves: tuple
    move_sums: _RowSums
    slice_sums: _RowSums


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
    """Carry the (R, P) slices at t-1 (order 2's frame 1: the (R, N)
    first-frame vectors) to frame t, before weighting by frame t's
    emissions. Order 1 is the (R, 1, N) @ (R, N, N) matmul. Order 2 sums
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
    """Backward twin of _step: the (R, P) slices at frame t from frame
    t+1's (R, P) backward slices ``beta``, before normalization. For
    order 1 ``weights`` are frame t+1's (R, N) shifted emissions b and the
    step is trans @ (b * beta). For order 2 they are the (R, K', P)
    products trans2 * b at each entry's allowed successors (see
    _backward), and each entry sums (trans2 * b) * beta over them in
    ascending order, as the contraction over all N successors does."""
    if stack.order == 1:
        return np.matmul(stack.trans, (weights * beta)[..., None])[..., 0]
    terms = beta.take(stack.entries.back[0], axis=1)
    terms *= weights
    return np.add.reduce(terms, 1)


def _ends(lengths):
    """Frame -> the rows whose last frame it is, of rows of ``lengths``."""
    ends = {}
    for r, n in enumerate(lengths.tolist()):
        ends.setdefault(n - 1, []).append(r)
    return {end: np.array(rows) for end, rows in ends.items()}


def _forward(stack, bsh, shifts, errors, lengths):
    """Scaled forward pass of the rows of ``stack`` over the (T, R, N)
    shifted emissions ``bsh`` and their (T, R) ``shifts``. Returns the
    (T, R, P) alpha over the stack's entries (order 2's slice 0 is 0: the
    first-frame vectors have no place among the pairs) and the (R, T)
    slice log normalizers. Each normalizer is the sum of the whole slice:
    where the entries do not fill it, the slice is scattered into a row of
    N^order zeros kept for the pass, and that row is summed. A row whose
    slice sums to 0 at a frame t before its length lengths[r] gets
    ImpossibleObservationError(t) in ``errors``; its later values are NaN.
    """
    T, R, N = bsh.shape
    order, flat = stack.order, stack.entries.flat
    b = bsh if order == 1 else bsh.take(stack.entries.last, axis=2)   # order 1's entries are the states
    row = None
    if len(flat) < N**order:   # else the slice is whole, and summed as it is
        row = np.zeros((R, N**order))
        at = (np.arange(R)[:, None] * N**order + flat).ravel()   # of each entry in the flattened rows
    alpha = np.zeros((T, R, len(flat)))
    norms = np.empty((T, R, 1))
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
        norms = norms.reshape(T, R).T.copy()
        log_norms = np.log(norms)
    log_norms += shifts.T
    dead = norms <= 0.0
    if lengths.min() < T:   # padding records no error
        dead &= np.arange(T) < lengths[:, None]
    _fail_first(errors, dead)
    return alpha, log_norms


def _backward(stack, bsh, lengths, norms=None):
    """Scaled (T, R, P) backward tables, over the stack's entries, of the
    rows of ``stack`` on the time axis of their forward pass, from their
    (T, R, N) shifted emissions ``bsh``. Row r starts from its model's
    terminal value (stack.terminal) at every entry at its last frame
    lengths[r]-1; its frames after that are padding. Slice t is divided by
    the (T, R) ``norms`` at t or, when ``norms`` is None, by its own
    maximum. For order 2, slice 0 is 0.
    """
    T, R = bsh.shape[:2]
    order = stack.order
    weights = bsh
    if order == 2:   # trans2 * b at each entry's successors, every frame at once
        _, states, at, ok = stack.entries.back
        weights = _gathered(stack.trans2, at, ok) * bsh.take(states, axis=2)
    ends = _ends(lengths)
    beta = np.empty((T, R, len(stack.entries.flat)))
    u = stack.terminal   # an array: the rescale divides by u.max
    for t in range(T - 1, order - 2, -1):
        if t < T - 1:
            u = _back_step(stack, weights[t + 1], beta[t + 1])
            if t in ends:
                u[ends[t]] = stack.terminal[ends[t]]
        np.divide(u, u.max(1, keepdims=True) if norms is None else norms[t, :, None], beta[t])
    if order == 2:
        beta[0] = 0.0
    return beta


class _RowPass:
    """One pass over the rows of the S models of ``stack`` on the L
    utterances ``xs`` (see the notes above _stack_key), non-empty and
    converted by the emission kind's observation rule, named ``names``
    (None: unnamed). Construction makes the one kernel call and leaves
    ``stack``, the rows' stack; ``lengths``, ``names`` and ``errors`` per
    row; the kernel's ``frame_logb`` and ``comp`` (None for symbol tables)
    of the concatenated frames; and ``logb``, the (T, R, N) padded log
    densities. The caller raises ``errors`` (_raise_first)."""

    def __init__(self, stack, xs, names):
        L, S, N = len(xs), stack.n_models, stack.n_states
        logb, self.comp, failed = _densities(stack, _stacked(xs), names[0])
        failed = [failed] * L
        if failed[0] is not None and L > 1:   # one by one: each utterance that fails gets its own error
            logb, _, failed = zip(*(_densities(stack, x, name) for x, name in zip(xs, names)))
            logb = np.concatenate(logb)
        lengths = np.array([len(x) for x in xs])
        T, self.frame_logb = max(lengths), logb
        if L == 1:
            self.logb = logb.reshape(T, S, N)
        else:   # padding: log densities of 0, on a C-contiguous time axis
            padded = np.zeros((T, L, S * N))
            padded.transpose(1, 0, 2)[np.arange(T) < lengths[:, None]] = logb
            self.logb = padded.reshape(T, L * S, N)
        self.stack = stack if L == 1 else stack.rows(np.tile(np.arange(S), L))
        self.lengths, self.n_models = np.repeat(lengths, S), S
        self.names = [name for name in names for _ in range(S)]
        self.errors = [failed[r // S] or err for r, err in enumerate(_bad_densities(self.logb))]

    def forward(self):
        """Sets ``bsh`` and ``shifts`` (_shifted_emissions), then ``alpha``
        and ``log_norms`` (_forward)."""
        self.bsh, self.shifts = _shifted_emissions(self.logb)
        self.alpha, self.log_norms = _forward(self.stack, self.bsh, self.shifts, self.errors, self.lengths)

    def backward(self):
        """Sets ``beta`` after forward: by the forward normalizers, a row
        with an inf or NaN again by each slice's maximum."""
        norms = np.exp(self.log_norms.T - self.shifts)
        norms[np.arange(len(norms))[:, None] >= self.lengths] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            beta = _backward(self.stack, self.bsh, self.lengths, norms)
            if not beta.max() < np.inf:
                lost = np.flatnonzero(~np.isfinite(beta).all(axis=(0, 2)))
                beta[:, lost] = _backward(self.stack.rows(lost), self.bsh[:, lost], self.lengths[lost])
        self.beta = beta

    def forward_backward(self, backward=True):
        """forward, the first error raised, then backward if ``backward``."""
        self.forward()
        _raise_first(self.errors, self.names)
        if backward:
            self.backward()
        return self

    def log_likelihoods(self):
        """Each row's forward score: the sum of its own log normalizers."""
        S = self.n_models
        blocks = self.log_norms.reshape(-1, S, self.log_norms.shape[1])
        return [v for block, n in zip(blocks, self.lengths[::S]) for v in block[:, :n].sum(axis=1).tolist()]

    def viterbi(self, paths=True):
        """(states, scores): _viterbi over the rows."""
        return _viterbi(self.stack, self.logb, self.errors, self.lengths, paths)

    @cached_property
    def move_values(self):
        """Per model of the stack, its last transition array at the
        layout's allowed moves (entries.moves)."""
        last = getattr(self.stack, _TRANSITION_FIELDS[self.stack.order][-1])[:self.n_models]
        return last.reshape(self.n_models, -1)[:, self.stack.entries.moves[0]]

    @np.errstate(divide="ignore", invalid="ignore")
    def posteriors(self, k, counts, norms):
        """State posteriors gamma (T, N) of row k, of T frames, from its
        compact (T, P) tables after forward_backward. Adds the summed
        posterior of its model's last transition array to counts[-1] (see
        _transition_posterior) and, for order 2, the first pair posterior
        to counts[0]. Frame t's slice (state or pair) posterior sum goes to
        norms[0, t]; that of the transition posterior ending at t to
        norms[1, t]. A frame at which the forward and backward slices share
        no mass gives NaN posteriors (0/0).

        The slice posterior is taken at the entries only, its sums bitwise
        those of the whole slices (entries.slice_sums). Each state's
        posterior adds the entries that end in it in ascending order, as
        the sum over the first axis of an (N, N) slice does; where at most
        one entry ends in each state (order 1), it is that entry's column.
        Order 2's first frame's (N, N) slice is scattered whole."""
        order, entries, t_count = self.stack.order, self.stack.entries, int(self.lengths[k])
        alpha, beta, bsh = self.alpha[:t_count, k], self.beta[:t_count, k], self.bsh[:t_count, k]
        n, p = bsh.shape[1], len(entries.flat)
        post = np.zeros((t_count - order + 1, p + 1))   # its last column: the padding of entries.ending
        slices = np.multiply(alpha[order - 1:], beta[order - 1:], out=post[:, :p])
        norms[0, order - 1:t_count] = sums = entries.slice_sums(slices)
        slices /= sums[:, None]
        gamma = np.empty((t_count, n))
        ending = entries.ending
        gamma[order - 1:] = post[:, ending[0]] if len(ending) == 1 else post.take(ending, axis=1).sum(axis=1)
        if order == 2:   # order 2's slice 0 holds no pairs: the first pair slice gives it
            first = np.zeros(n * n)
            first[entries.flat] = slices[0]
            first = first.reshape(n, n)
            gamma[0] = first.sum(axis=1)
            counts[0] += first
        if t_count > order:
            counts[-1].flat[entries.moves[0]] += self._transition_posterior(k, alpha, beta, bsh, norms[1])
        return gamma

    def _transition_posterior(self, k, alpha, beta, bsh, norms):
        """Sum over frames t = order..T-1 of the posterior of the transition
        ending at t, at the allowed moves, from row k's compact (T, P)
        ``alpha`` and ``beta`` and (T, N) shifted emissions ``bsh``; every
        other transition's is 0. It is taken chunk by chunk (_chunk_frames).
        The terms alpha(i...) A(i..., k) b(k) beta(...k) are taken in the
        whole product's order, (alpha * trans) * (b * beta) for order 1 and
        alpha * trans2 * b * beta for order 2, into a C-contiguous (F, K)
        array (by ``take``: a fancy-indexed gather is Fortran-ordered). Each
        frame is divided by its sum (entries.move_sums), written to
        norms[t]. The sum of the chunks before is folded into each chunk's
        first row, and numpy sums axis 0 of a C-contiguous array row by row
        in order, so each move's total is bitwise that of the sum of the
        whole (T-order, N, ..., N) tensor."""
        order, entries = self.stack.order, self.stack.entries
        _, source, target, last = entries.moves
        values, frames = self.move_values[k % self.n_models], _chunk_frames(entries.move_sums)
        acc = None
        for lo in range(order - 1, len(bsh) - 1, frames):
            hi = min(lo + frames, len(bsh) - 1)
            xi = np.take(alpha[lo:hi], source, axis=1)
            xi *= values
            entering = beta[lo + 1:hi + 1, target]
            if order == 1:
                entering *= bsh[lo + 1:hi + 1, last]
            else:
                xi *= bsh[lo + 1:hi + 1, last]
            xi *= entering
            norms[lo + 1:hi + 1] = entries.move_sums(xi)
            xi /= norms[lo + 1:hi + 1, None]
            if acc is not None:
                xi[0] += acc
            acc = xi.sum(axis=0)
        return acc


# bytes of the move_sums buffer of one chunk of frames of the transition
# posterior; at 2**18 its arrays stay in a core's cache, which took about a
# fifth less time per utterance than whole utterances of 150-250 frames
# (24-state order-2 models, 2-vCPU Xeon VM)
_TERMS_BYTES = 2**18


def _chunk_frames(sums):
    """Frames per chunk of the transition posterior: as many as fill about
    _TERMS_BYTES of the buffer of the _RowSums ``sums``, and at least 1."""
    return max(1, _TERMS_BYTES // (8 * sums.width))


def _one_utterance(stack, obs):
    """The _RowPass of the models of ``stack`` on ``obs`` (checked by _checked)."""
    x, name = _checked(stack.emission, obs)
    return _RowPass(stack, [x], [name])


def _forward_backward(model, obs, backward=True):
    """One model's forward lattice, with its backward table when
    ``backward``: the one-row _RowPass, its (T, P) tables scattered into
    (T, N...) slices of zeros, as the steps over all pairs leave them, but
    in two backward slices: the last holds the terminal value, divided as
    the others, at every pair; and a slice that is NaN at every entry (a
    rescaled rerun whose slice maximum underflowed to 0, and every slice
    before it) is NaN at every pair."""
    rows = _one_utterance(_ModelStack((model,)), obs).forward_backward(backward)
    alpha, beta, t_count = rows.alpha[:, 0], rows.beta[:, 0] if backward else None, len(rows.logb)
    n, flat = model.n_states**model.order, rows.stack.entries.flat
    if len(flat) < n:
        alpha = np.zeros((t_count, n))
        alpha[:, flat] = rows.alpha[:, 0]
        if backward:
            full = np.isnan(rows.beta[:, 0]).all(axis=1)
            full[-1] = t_count > 1
            beta = np.zeros((t_count, n))
            beta[:, flat] = rows.beta[:, 0]
            beta[full] = rows.beta[full, 0, :1]   # a NaN keeps its bits
    shape = (t_count,) + (model.n_states,) * model.order
    return TrellisLattice(
        order=model.order,
        alpha=alpha.reshape(shape),
        slice_log_norms=rows.log_norms[0],
        log_likelihood=rows.log_likelihoods()[0],
        beta=None if beta is None else beta.reshape(shape),
        emission_shifts=rows.shifts[:, 0],
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
    enters or that some allowed triple (j, k, l) leaves (whose forward
    values are 0 but backward values are not), or pair (0, 0) when there
    is none; a left-to-right or ring model's are its ``allowed1`` pairs.
    An entry's predecessors (successors) are the states of the allowed
    transitions into (out of) it; K is the longest such list, and at
    least 1. Shorter lists are padded with place 0 and moves the pattern
    does not allow."""
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
    at = np.flatnonzero(allowed)   # the allowed moves, in the last array
    moves = (at, place[at // N], place[at % N**order], at % N)
    entries = _Entries(flat, flat % N, place, np.where(ok, ending, len(flat)), steps, back, moves,
                       _RowSums(allowed.size, at), _RowSums(N**order, flat))
    for array in itertools.chain(entries[:4], *steps, back or (), moves):
        array.setflags(write=False)
    return entries


class _PlanNode:
    """A value of a _RowSums plan: node ``number`` of ``tree``, the plan's
    list of nodes (None for a leaf, else the numbers of the two nodes
    added). Adding another node records that addition; adding anything
    else (0.0: a position that is not kept) leaves the node as it is."""

    __slots__ = ("tree", "number")

    def __init__(self, tree, operands=None):
        self.tree, self.number = tree, len(tree)
        tree.append(operands)

    def __add__(self, other):
        if not isinstance(other, _PlanNode):
            return self
        return _PlanNode(self.tree, (self.number, other.number))

    __radd__ = __add__


class _RowSums:
    """Sums of rows of ``n`` values that are zero except at the sorted
    positions ``flat``, from the (F, K) values at those positions; each is
    bitwise the np.sum of its whole row, which adds a contiguous row
    pairwise (models._pairwise_sum) to an initial 0.0.

    Where every position is kept, the values are summed as they are, so
    their rows must be contiguous. Otherwise they are copied, of any
    layout: a row of up to 128 values, one pairwise block, into a row of
    zeros, summed; a longer row follows a plan of the same additions in the
    same order, with every addition of an all-zero part left out: adding
    a zero changes at most the sign of a zero sum, and the closing
    addition of 0.0 makes every zero +0.0, as np.sum's initial 0.0 does.
    The plan is what models._pairwise_sum adds up over a row of
    _PlanNodes at the kept positions and 0.0 elsewhere. It takes its
    additions a level (of depth in the tree) at a time over all frames, on
    a (width, F) buffer: the values in the first K rows, each partial sum
    in a row of its own after them. Either way a frame takes ``width``
    values of buffer. The plan's operand arrays are read-only.
    """

    def __init__(self, n, flat):
        self.n, self.flat, self.levels, self.width = n, flat, None, n
        if n <= 128 or len(flat) in (0, n):
            return
        k, tree = len(flat), []
        leaves = np.full(n, 0.0, dtype=object)
        leaves[flat] = [_PlanNode(tree) for _ in range(k)]
        root = _pairwise_sum(leaves).number
        pairs = tree[k:]   # the operands of the additions; addition i gives node k + i
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
            operands.setflags(write=False)
            self.levels.append((slice(start, start + operands.shape[1]), *operands))
            start += operands.shape[1]

    def __call__(self, terms):
        if len(self.flat) == self.n:   # every position kept: the rows as they are, each summed along itself
            return terms.sum(axis=1)
        if self.levels is None:
            rows = np.zeros((len(terms), self.n))
            rows[:, self.flat] = terms
            return rows.sum(axis=1)
        buf = np.empty((self.width, len(terms)))
        buf[:len(self.flat)] = terms.T
        for out, left, right in self.levels:
            np.add(buf[left], buf[right], out=buf[out])
        return buf[self.root] + 0.0


def _max_plus(order, steps, dp, frames, ends, ptr=None, peaks=None):
    """The max-plus recursion from frame 0's (R, N) scores ``dp`` over the
    (T, R, P) log-densities ``frames`` at each entry's last state, with
    ``steps`` (places, log-transitions) per kind of step, writing ``ptr``
    and each slice's maximum to the (R, T) ``peaks`` when given. Returns
    each row's best place and score at its last frame (``ends``: _ends)."""
    best, scores, t = np.zeros(len(dp), dtype=np.int64), np.empty(len(dp)), 0
    if peaks is not None:
        peaks[:, 0] = dp.max(axis=1)
    for end in sorted(ends):   # frame by frame up to the next rows' last frame
        for t in range(t + 1, end + 1):
            places, logv = steps[min(t, order) - 1]
            cand = dp.take(places, axis=1)
            cand += logv
            if ptr is not None:
                np.argmax(cand, 1, ptr[t])   # positional out=: this loop runs once per frame
            dp = cand.max(axis=1)
            dp += frames[t]
            if peaks is not None:
                peaks[:, t] = dp.max(axis=1)
        rows = ends[end]
        best[rows] = np.argmax(dp[rows], axis=1)
        scores[rows] = dp[rows, best[rows]]
    return best, scores


def _viterbi(stack, logb, errors, lengths, paths=True):
    """Max-plus twin of _forward over the stack's _Entries, with a
    back-pointer from each entry to its best predecessor's row in the
    step's table. Returns the (R, T) best paths (None without ``paths``:
    no back-pointers are kept) and the (R,) joint log-probabilities of the
    rows of ``stack`` over their (T, R, N) log densities ``logb``, each at
    its row's last frame lengths[r]-1. A row whose best score is -inf at a
    frame t of its own gets ImpossibleObservationError(t) in ``errors``.

    Frame 0's slice is the N states for both orders. Each later frame takes
    every entry's best over its allowed predecessors (order 2's frame 1:
    its one first-step source), then adds the log-density of the state the
    entry ends in. A slice that is all -inf stays so, so the recursion
    runs again, keeping each slice's maximum, only for the rows whose
    score is -inf, to find their first such frame."""
    T, R, _ = logb.shape
    order, entries = stack.order, stack.entries
    frames = logb if order == 1 else logb.take(entries.last, axis=2)   # order 1's entries are the states
    start = _log(stack.initial) + logb[0]
    steps = [(places, logs) for places, _, logs in stack.steps]
    ptr = np.empty((T, R, len(entries.last)), dtype=np.int64) if paths else None
    best, scores = _max_plus(order, steps, start, frames, _ends(lengths), ptr)
    dead = np.flatnonzero(np.isneginf(scores))
    if dead.size:
        peaks = np.empty((len(dead), T))
        _max_plus(order, [(places, logs[dead]) for places, logs in steps], start[dead], frames[:, dead],
                  _ends(lengths[dead]), peaks=peaks)
        hits = np.zeros((R, T), dtype=bool)
        hits[dead] = np.isneginf(peaks) & (np.arange(T) < lengths[dead, None])
        _fail_first(errors, hits)
    if not paths:
        return None, scores
    states = np.zeros((R, T), dtype=np.int64)   # 0 after a row's last frame
    for end, rows in _ends(lengths).items():   # back from the rows' own last frame
        place, path = best[rows], []
        for t in range(end, 0, -1):
            path.append(entries.last[place])
            place = entries.steps[min(t, order) - 1][0][ptr[t, rows, place], place]
        path.append(place)   # frame 0's slice is the states
        states[rows, :end + 1] = np.array(path[::-1]).T
    return states, scores


def _single_path(model, obs) -> StatePath:
    """Best path of one model (viterbi1, viterbi2)."""
    rows = _one_utterance(_ModelStack((model,)), obs)
    states, log_probs = rows.viterbi()
    _raise_first(rows.errors, rows.names)
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
    scored as the rows of one pass. Returns the scores in the order of
    ``models``. When models fail, raises the error that the first of them,
    scored alone, raises.
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
    """(scores, errors) of every model of ``stack``: the rows of a
    one-utterance _RowPass. Checks of ``obs`` that fail raise."""
    rows = _one_utterance(stack, obs)
    if scoring == "forward":
        rows.forward()
        return rows.log_likelihoods(), rows.errors
    return rows.viterbi(paths=False)[1].tolist(), rows.errors


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
