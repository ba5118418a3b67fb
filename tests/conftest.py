"""Shared builders for randomized tests.

All randomness is drawn from explicitly-seeded generators inside each test;
nothing here keeps global state.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from hmmsid.models import (
    DiscreteEmission,
    GmmEmission,
    Hmm1Model,
    Hmm2Model,
    circular_topology,
    custom_topology,
    ltr_topology,
)

# (order, topology, emission) — the eight model configurations exercised by
# the randomized suites. Ring topologies need at least 3 states.
ALL_CONFIGS = [
    (order, topology, emission)
    for order in (1, 2)
    for topology in ("ltr", "circular")
    for emission in ("discrete", "gmm")
]

N_SYMBOLS = 4


def states_for(topology: str, rng) -> int:
    if topology == "circular":
        return 3
    return int(rng.integers(2, 4))


def make_mask(topology: str, n_states: int, rng=None):
    """A left-to-right (skip width 2) or ring mask, or for "custom" a
    random one drawn from ``rng``."""
    if topology == "custom":
        return random_custom_mask(rng, n_states)
    if topology == "circular":
        return circular_topology(n_states)
    return ltr_topology(n_states, skip_width=2)


def random_custom_mask(rng, n_states: int, density: float = 0.2):
    """A custom mask allowing each transition with probability ``density``
    and, so that every state has a successor, one drawn successor per
    state."""
    allowed = rng.random((n_states, n_states)) < density
    allowed[np.arange(n_states), rng.integers(n_states, size=n_states)] = True
    return custom_topology(allowed)


def random_simplex(rng, size, floor=0.05):
    v = rng.uniform(floor, 1.0, size=size)
    return v / v.sum()


def random_emissions(rng, kind: str, n_states: int, n_dims: int = 2, n_mixtures: int = 2):
    out = []
    for _ in range(n_states):
        if kind == "discrete":
            out.append(DiscreteEmission(random_simplex(rng, N_SYMBOLS)))
        else:
            out.append(
                GmmEmission(
                    weights=random_simplex(rng, n_mixtures),
                    means=rng.normal(0.0, 2.0, size=(n_mixtures, n_dims)),
                    variances=rng.uniform(0.3, 2.0, size=(n_mixtures, n_dims)),
                )
            )
    return tuple(out)


def random_initial(rng, mask):
    if mask.kind == "ltr":
        init = np.zeros(mask.n_states)
        init[0] = 1.0
        return init
    return random_simplex(rng, mask.n_states)


def random_trans1(rng, mask):
    n = mask.n_states
    trans = np.zeros((n, n))
    for i in range(n):
        row = np.where(mask.allowed1[i], rng.uniform(0.05, 1.0, n), 0.0)
        trans[i] = row / row.sum()
    return trans


def random_trans2(rng, mask):
    n = mask.n_states
    trans2 = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            if not mask.allowed1[i, j]:
                continue
            row = np.where(mask.allowed2[i, j], rng.uniform(0.05, 1.0, n), 0.0)
            trans2[i, j] = row / row.sum()
    return trans2


def make_random_model(rng, order: int, topology: str, emission: str,
                      n_states: int | None = None, n_dims: int = 2,
                      n_mixtures: int = 2):
    if n_states is None:
        n_states = states_for(topology, rng)
    mask = make_mask(topology, n_states, rng)
    emissions = random_emissions(rng, emission, n_states, n_dims, n_mixtures)
    if order == 1:
        return Hmm1Model(
            mask=mask,
            initial=random_initial(rng, mask),
            trans=random_trans1(rng, mask),
            emissions=emissions,
        )
    return Hmm2Model(
        mask=mask,
        initial=random_initial(rng, mask),
        trans1=random_trans1(rng, mask),
        trans2=random_trans2(rng, mask),
        emissions=emissions,
    )


def leaving_only_pair(model, rng):
    """The order-2 ``model`` with one pair (i, j), i != j, drawn among
    those that triples leave, made one that only triples leave: trans1 is
    0 there and no triple enters it, while its own row of trans2 is kept,
    so its forward values are 0 at every frame and its backward values
    are not. Returns the model and the pair's flat index i*N + j, or
    ``model`` and None when no pair qualifies."""
    n = model.n_states
    pairs = np.argwhere(model.trans2.any(axis=2) & ~np.eye(n, dtype=bool))
    if not len(pairs):
        return model, None
    i, j = pairs[rng.integers(len(pairs))]
    trans1, trans2 = model.trans1.copy(), model.trans2.copy()
    trans1[i, j] = 0.0
    trans2[:, i, j] = 0.0
    for table in (trans1, trans2):
        sums = table.sum(axis=-1, keepdims=True)
        np.divide(table, sums, out=table, where=sums > 0)
    return replace(model, trans1=trans1, trans2=trans2), int(i * n + j)


def make_obs(rng, emission: str, t_count: int, n_dims: int = 2) -> np.ndarray:
    if emission == "discrete":
        return rng.integers(0, N_SYMBOLS, size=t_count)
    return rng.normal(0.0, 2.0, size=(t_count, n_dims))


def far_off_case(seed: int, order: int, topology: str = "ltr"):
    """A random GMM model, left-to-right with 2-3 states or a 5-state ring,
    and an utterance 40-100 times farther out than make_obs draws, on which
    some forward normalizers (in the shifted domain) fall to 1e-300 and
    below. Not on a 3-state ring: each of its states reaches every other in
    one step, so no normalizer falls that far."""
    rng = np.random.default_rng(seed)
    model = make_random_model(rng, order, topology, "gmm", 5 if topology == "circular" else None)
    return model, rng.uniform(40, 100) * make_obs(rng, "gmm", rng.integers(5, 40))
