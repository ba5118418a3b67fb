"""How passes fail, checked against the exhaustive-enumeration oracle.

Every pass over an utterance (forward, forward-backward, Viterbi, both
scoring modes, a Baum-Welch iteration) either succeeds or raises
ImpossibleObservationError at the first frame t whose prefix x[:t+1] has
probability 0. Errors name the utterance wherever it has a name. Densities
that are NaN (a zero variance) and training sets of mixed frame
dimension fail loudly instead of turning into NaN scores or numpy's
concatenation error.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import N_SYMBOLS, make_obs, make_random_model
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import enum_log_likelihood

from hmmsid.errors import ImpossibleObservationError
from hmmsid.features import FeatureMatrix, FeatureMeta
from hmmsid.inference import (
    forward1,
    forward2,
    forward_backward1,
    forward_backward2,
    score_models,
    viterbi1,
    viterbi2,
)
from hmmsid.models import DiscreteEmission, GmmEmission, Hmm1Model, ltr_topology
from hmmsid.speaker_id import SpeakerRegistry
from hmmsid.training import (
    TrainConfig,
    VariantSpec,
    baum_welch1,
    baum_welch2,
    segmental_kmeans_init,
    train,
)

ONE_ITERATION = TrainConfig(max_iterations=1)


def _passes(order):
    """Every pass over one utterance, by name, as run(model, obs)."""
    forward, forward_backward, viterbi, baum_welch = {
        1: (forward1, forward_backward1, viterbi1, baum_welch1),
        2: (forward2, forward_backward2, viterbi2, baum_welch2),
    }[order]
    return {
        "forward": forward,
        "forward_backward": forward_backward,
        "viterbi": viterbi,
        "score_models forward": lambda m, x: score_models([m], x, "forward"),
        "score_models viterbi": lambda m, x: score_models([m], x, "viterbi"),
        "baum_welch": lambda m, x: baum_welch(m, [x], ONE_ITERATION),
    }


def _discrete_model(order, topology, n_states, zeros, seed):
    """A random discrete model whose symbol probabilities are 0 where
    ``zeros`` (n_states x N_SYMBOLS) is set; a state left with none emits
    symbol state mod N_SYMBOLS."""
    model = make_random_model(np.random.default_rng(seed), order, topology, "discrete",
                              n_states=n_states)
    probs = np.array([e.probs for e in model.emissions])
    probs[np.array(zeros, dtype=bool)] = 0.0
    for i in range(n_states):
        if not probs[i].any():
            probs[i, i % N_SYMBOLS] = 1.0
    return replace(model, emissions=tuple(DiscreteEmission(p / p.sum()) for p in probs))


@st.composite
def _cases(draw):
    """(order, topology, n_states, zeros, seed, symbols) for _discrete_model
    and a 3-6 symbol utterance."""
    n_states = draw(st.integers(3, 4))
    row = st.lists(st.booleans(), min_size=N_SYMBOLS, max_size=N_SYMBOLS)
    return (
        draw(st.sampled_from((1, 2))),
        draw(st.sampled_from(("ltr", "circular"))),
        n_states,
        draw(st.lists(row, min_size=n_states, max_size=n_states)),
        draw(st.integers(0, 2**16)),
        draw(st.lists(st.integers(0, N_SYMBOLS - 1), min_size=3, max_size=6)),
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_cases())
# frame 0 is impossible from state 0, and frame 1's symbol 2 from every state
@example((1, "ltr", 3, [[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0]], 34997, [3, 2, 3, 2]))
def test_every_pass_fails_at_the_first_impossible_prefix(case):
    order, topology, n_states, zeros, seed, symbols = case
    model = _discrete_model(order, topology, n_states, zeros, seed)
    x = np.array(symbols)
    impossible = [enum_log_likelihood(model, x[:t + 1]) == -np.inf for t in range(len(x))]
    for name, run in _passes(order).items():
        if not any(impossible):
            run(model, x)
            continue
        with pytest.raises(ImpossibleObservationError) as caught:
            run(model, x)
        assert caught.value.frame == impossible.index(True), name


def test_scoring_a_feature_matrix_names_its_source():
    rng = np.random.default_rng(31)
    model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
    frames = make_obs(rng, "gmm", 5)
    frames[2] = 1e200   # every density is 0
    fm = FeatureMatrix(frames, FeatureMeta(source="spk03/w07.wav"))
    registry = SpeakerRegistry()
    registry.add_model("spk03", "w07", "ltr1", model)
    runs = dict(_passes(1), identify=lambda m, o: registry.identify("w07", "ltr1", o))
    for name, run in runs.items():
        with pytest.raises(ImpossibleObservationError) as caught:
            run(model, fm)
        assert caught.value.utterance == "spk03/w07.wav", name
        assert str(caught.value) == (
            "observation impossible under the model at utterance 'spk03/w07.wav', frame 2"
        ), name


@pytest.mark.parametrize("order", [1, 2])
def test_kernel_frame_check_names_its_source(order):
    """The emission kernel's dimension check names a FeatureMatrix's
    source in every pass, as the observation rule's checks do."""
    model = make_random_model(np.random.default_rng(37), order, "ltr", "gmm", n_states=3)
    registry = SpeakerRegistry()
    registry.add_model("s", "w", f"ltr{order}", model)
    runs = dict(_passes(order), identify=lambda m, o: registry.identify("w", f"ltr{order}", o))
    fm = FeatureMatrix(make_obs(np.random.default_rng(38), "gmm", 6, n_dims=3), FeatureMeta(source="bad.wav"))
    for name, run in runs.items():
        with pytest.raises(ValueError) as caught:
            run(model, fm)
        assert str(caught.value) == "utterance 'bad.wav': frames have dimension 3, emission has 2", name


class TestNanDensity:
    """A zero variance makes a Gaussian's log-density NaN, never +inf."""

    @staticmethod
    def _model():
        emissions = (
            GmmEmission([1.0], [[0.0, 0.0]], [[0.0, 1.0]]),
            GmmEmission([1.0], [[1.0, 1.0]], [[1.0, 1.0]]),
        )
        return Hmm1Model(ltr_topology(2, 1), [1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], emissions)

    @pytest.mark.parametrize("name", list(_passes(1)) + ["identify"])
    def test_every_pass_raises(self, name):
        model = self._model()
        registry = SpeakerRegistry()
        registry.add_model("s", "w", "ltr1", model)
        runs = dict(_passes(1), identify=lambda m, o: registry.identify("w", "ltr1", o))
        obs = make_obs(np.random.default_rng(32), "gmm", 6)
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError) as caught:
            runs[name](model, obs)
        assert str(caught.value) == "emission density is NaN (zero variance?)"


class TestMixedDimensions:
    """A Gaussian training set whose utterances differ in frame dimension
    fails before its frames are pooled, naming the first utterance that
    differs."""

    @staticmethod
    def _obs_set():
        rng = np.random.default_rng(33)
        return [make_obs(rng, "gmm", 8), make_obs(rng, "gmm", 9), make_obs(rng, "gmm", 7, n_dims=3)]

    def test_initialization(self):
        message = "utterance 2: frames have dimension 3, utterance 0 has 2"
        with pytest.raises(ValueError) as caught:
            segmental_kmeans_init(self._obs_set(), 3, 2)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            train(VariantSpec(n_states=3, n_mixtures=2), self._obs_set(), ONE_ITERATION)
        assert str(caught.value) == message

    @pytest.mark.parametrize("order", [1, 2])
    def test_baum_welch(self, order):
        model = make_random_model(np.random.default_rng(34), order, "ltr", "gmm", n_states=3)
        baum_welch = baum_welch1 if order == 1 else baum_welch2
        with pytest.raises(ValueError) as caught:
            baum_welch(model, self._obs_set(), ONE_ITERATION)
        assert str(caught.value) == "utterance 2: frames have dimension 3, emission has 2"


def test_empty_feature_matrix_names_its_source():
    model = make_random_model(np.random.default_rng(35), 1, "ltr", "gmm", n_states=3)
    with pytest.raises(ValueError) as caught:
        forward1(model, FeatureMatrix(np.zeros((0, 2)), FeatureMeta(source="a.wav")))
    assert str(caught.value) == "utterance 'a.wav': empty observation sequence"
    with pytest.raises(ValueError) as caught:
        forward1(model, np.zeros((0, 2)))
    assert str(caught.value) == "empty observation sequence"


@pytest.mark.parametrize("run", [forward1, viterbi1], ids=["forward1", "viterbi1"])
def test_far_off_frame_fails_without_overflow_warning(run):
    """A frame whose squared distance from every mean overflows has density
    0: the pass fails there, and the overflow is not reported as a warning."""
    rng = np.random.default_rng(36)
    model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
    frames = make_obs(rng, "gmm", 6)
    frames[3] = 1e200
    fm = FeatureMatrix(frames, FeatureMeta(source="far.wav"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImpossibleObservationError) as caught:
            run(model, fm)
    assert caught.value.frame == 3
    assert caught.value.utterance == "far.wav"
