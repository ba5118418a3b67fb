import contextlib
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    ALL_CONFIGS,
    far_off_case,
    leaving_only_pair,
    make_obs,
    make_random_model,
    random_trans1,
    random_trans2,
)

from hmmsid import inference
from hmmsid.errors import ImpossibleObservationError
from hmmsid.features import FeatureMatrix
from hmmsid.inference import (
    _backward,
    _checked,
    _ModelStack,
    _one_utterance,
    _RowPass,
    _shifted_emissions,
    decode_pair_path,
    embed_pair_states,
    forward1,
    forward2,
    forward_backward2,
    score_models,
    viterbi1,
    viterbi2,
)
from hmmsid.models import (
    DiscreteEmission,
    Hmm1Model,
    Hmm2Model,
    circular_topology,
    custom_topology,
    ltr_topology,
)
from hmmsid.speaker_id import SpeakerRegistry

CONFIGS2 = [("ltr", "discrete"), ("ltr", "gmm"), ("circular", "discrete"), ("circular", "gmm")]


class TestForward2AgainstEnumeration:
    @pytest.mark.parametrize("topology,emission", CONFIGS2)
    def test_log_likelihood_matches_enumeration(self, topology, emission):
        rng = np.random.default_rng(200)
        for _ in range(40):
            model = make_random_model(rng, 2, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            want = oracles.enum_log_likelihood(model, obs)
            got = forward2(model, obs).log_likelihood
            assert got == pytest.approx(want, rel=1e-10)

    def test_single_frame_uses_initial_only(self):
        rng = np.random.default_rng(201)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs = make_obs(rng, "gmm", 1)
        want = oracles.enum_log_likelihood(model, obs)
        assert forward2(model, obs).log_likelihood == pytest.approx(want, rel=1e-12)

    def test_two_frames_use_first_step_matrix(self):
        rng = np.random.default_rng(202)
        model = make_random_model(rng, 2, "ltr", "discrete")
        obs = make_obs(rng, "discrete", 2)
        want = oracles.enum_log_likelihood(model, obs)
        assert forward2(model, obs).log_likelihood == pytest.approx(want, rel=1e-12)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(203)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs = make_obs(rng, "gmm", 1500)
        lat = forward2(model, obs)
        assert np.isfinite(lat.log_likelihood)

    def test_pair_slices_are_normalized(self):
        rng = np.random.default_rng(204)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs = make_obs(rng, "gmm", 10)
        lat = forward2(model, obs)
        np.testing.assert_allclose(lat.alpha[1:].sum(axis=(1, 2)), 1.0, atol=1e-12)


class TestPairPosteriors:
    @pytest.mark.parametrize("topology,emission", CONFIGS2)
    def test_state_posteriors_match_enumeration(self, topology, emission):
        rng = np.random.default_rng(210)
        for _ in range(10):
            model = make_random_model(rng, 2, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(3, 7)))
            lat = forward_backward2(model, obs)
            pair = lat.alpha[1:] * lat.beta[1:]
            pair /= pair.sum(axis=(1, 2), keepdims=True)
            t_count = np.asarray(obs).shape[0]
            gamma = np.zeros((t_count, model.n_states))
            gamma[0] = pair[0].sum(axis=1)
            gamma[1:] = pair.sum(axis=1)
            want = oracles.enum_state_posteriors(model, obs)
            np.testing.assert_allclose(gamma, want, rtol=1e-8, atol=1e-12)

    def test_pair_posterior_matches_adjacent_pair_enumeration(self):
        rng = np.random.default_rng(211)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs = make_obs(rng, "gmm", 5)
        lat = forward_backward2(model, obs)
        pair = lat.alpha[1:] * lat.beta[1:]
        pair /= pair.sum(axis=(1, 2), keepdims=True)
        want = oracles.enum_pair_posteriors(model, obs)
        np.testing.assert_allclose(pair, want, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("seed,topology", [(801, "ltr"), (1057, "circular")],
                             ids=["801", "circular-1057"])
    def test_far_off_utterance_keeps_beta_finite(self, seed, topology):
        """Dividing beta by a subnormal forward normalizer overflowed to
        inf and NaN; the lane is rescaled slice by slice instead."""
        model, obs = far_off_case(seed, 2, topology)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lat = forward_backward2(model, obs)
        assert np.isfinite(lat.beta).all()
        pair = lat.alpha[1:] * lat.beta[1:]
        pair /= pair.sum(axis=(1, 2), keepdims=True)
        want = oracles.enum_pair_posteriors(model, obs)
        np.testing.assert_allclose(pair, want, rtol=1e-8, atol=1e-12)


class TestViterbi2:
    @pytest.mark.parametrize("topology,emission", CONFIGS2)
    def test_best_path_matches_enumeration(self, topology, emission):
        rng = np.random.default_rng(220)
        for _ in range(40):
            model = make_random_model(rng, 2, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            want_path, want_score = oracles.enum_best_path(model, obs)
            got = viterbi2(model, obs)
            assert got.log_prob == pytest.approx(want_score, rel=1e-10)
            np.testing.assert_array_equal(got.states, want_path)

    def test_tie_break_matches_enumeration_on_uniform_model(self):
        mask = circular_topology(3)
        model = Hmm2Model(
            mask=mask,
            initial=np.full(3, 1.0 / 3.0),
            trans1=np.where(mask.allowed1, 1.0 / 3.0, 0.0),
            trans2=np.where(mask.allowed2, 1.0 / 3.0, 0.0),
            emissions=tuple(DiscreteEmission(np.array([0.5, 0.5])) for _ in range(3)),
        )
        obs = np.zeros(5, dtype=np.int64)
        want_path, want_score = oracles.enum_best_path(model, obs)
        got = viterbi2(model, obs)
        assert got.log_prob == pytest.approx(want_score, rel=1e-12)
        np.testing.assert_array_equal(got.states, want_path)

    def test_path_score_matches_path_log_prob(self):
        rng = np.random.default_rng(221)
        model = make_random_model(rng, 2, "ltr", "gmm")
        obs = make_obs(rng, "gmm", 8)
        path = viterbi2(model, obs)
        assert oracles.path_log_probs(model, obs, path.states[None])[0] == pytest.approx(
            path.log_prob, rel=1e-12
        )

    def test_hand_computed_path_log_prob(self):
        # the first transition is scored with trans1, later ones with trans2
        mask = ltr_topology(2, skip_width=1)
        trans2 = np.zeros((2, 2, 2))
        trans2[0, 0] = [0.7, 0.3]
        trans2[0, 1] = [0.0, 1.0]
        trans2[1, 1] = [0.0, 1.0]
        model = Hmm2Model(
            mask=mask,
            initial=np.array([1.0, 0.0]),
            trans1=np.array([[0.6, 0.4], [0.0, 1.0]]),
            trans2=trans2,
            emissions=(
                DiscreteEmission(np.array([0.9, 0.1])),
                DiscreteEmission(np.array([0.2, 0.8])),
            ),
        )
        obs = np.array([0, 0, 1, 1])
        want = (np.log(1.0) + np.log(0.9) + np.log(0.6) + np.log(0.9)
                + np.log(0.3) + np.log(0.8) + np.log(1.0) + np.log(0.8))
        got = oracles.path_log_probs(model, obs, np.array([[0, 0, 1, 1]]))[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_impossible_frame_raises(self):
        mask = circular_topology(3)
        model = Hmm2Model(
            mask=mask,
            initial=np.full(3, 1.0 / 3.0),
            trans1=np.where(mask.allowed1, 1.0 / 3.0, 0.0),
            trans2=np.where(mask.allowed2, 1.0 / 3.0, 0.0),
            emissions=tuple(DiscreteEmission(np.array([1.0, 0.0])) for _ in range(3)),
        )
        with pytest.raises(ImpossibleObservationError):
            viterbi2(model, np.array([0, 1, 0]))
        with pytest.raises(ImpossibleObservationError):
            forward2(model, np.array([0, 1, 0]))


@st.composite
def _finite_models(draw):
    """A random finite model of one of the 8 (order, topology, emission)
    configurations or a custom mask, with 2-4 states, and an utterance of
    1-5 frames."""
    order = draw(st.sampled_from((1, 2)))
    topology = draw(st.sampled_from(("ltr", "circular", "custom")))
    emission = draw(st.sampled_from(("discrete", "gmm")))
    n_states = draw(st.integers(3 if topology == "circular" else 2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = make_random_model(rng, order, topology, emission, n_states=n_states)
    return model, make_obs(rng, emission, draw(st.integers(1, 5)))


class TestRandomModelsAgainstEnumeration:
    """Random finite models of every configuration keep passing the
    enumeration oracles: forward1/2 against the log-sum-exp over every
    state path, viterbi1/2 against the best of them."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_finite_models())
    def test_forward_and_viterbi_match_enumeration(self, case):
        model, obs = case
        forward, viterbi = (forward1, viterbi1) if model.order == 1 else (forward2, viterbi2)
        assert forward(model, obs).log_likelihood == pytest.approx(
            oracles.enum_log_likelihood(model, obs), rel=1e-10)
        want_path, want_score = oracles.enum_best_path(model, obs)
        got = viterbi(model, obs)
        assert got.log_prob == pytest.approx(want_score, rel=1e-10)
        np.testing.assert_array_equal(got.states, want_path)


class TestAllowedPredecessors:
    """The max-plus step with the last transition array (trans for order
    1, trans2 for order 2) visits only each state's allowed predecessors;
    its scores, paths and failing frames are bitwise those of the step
    over all N predecessors (oracles.dense_viterbi)."""

    @staticmethod
    def _check(models, obs, paths):
        """Compare _viterbi with the dense recursion on the stack of
        ``models``; return the scores."""
        stack = _ModelStack(models)
        rows = _one_utterance(stack, obs)
        states, scores = rows.viterbi(paths)
        want_states, want_scores, want_dead = oracles.dense_viterbi(stack, rows.logb, paths)
        assert np.array_equal(scores, want_scores)
        assert [None if e is None else e.frame for e in rows.errors] == want_dead
        if paths:   # a failing model's path is never read
            live = np.isfinite(scores)
            assert np.array_equal(states[live], want_states[live])
        return scores

    @staticmethod
    def _uniform_model(order, mask, n_symbols=2):
        """Every transition row and symbol table uniform: every path of
        one length and one set of row widths ties."""
        n = mask.n_states
        trans1 = mask.allowed1 / mask.allowed1.sum(axis=1, keepdims=True)
        emissions = tuple(DiscreteEmission(np.full(n_symbols, 1.0 / n_symbols)) for _ in range(n))
        if order == 1:
            return Hmm1Model(mask, np.full(n, 1.0 / n), trans1, emissions)
        allowed2 = mask.allowed2
        rows = allowed2.sum(axis=2, keepdims=True)
        trans2 = np.divide(allowed2, rows, out=np.zeros(allowed2.shape), where=rows > 0)
        return Hmm2Model(mask, np.full(n, 1.0 / n), trans1, trans2, emissions)

    @staticmethod
    def _random_transitions(rng, model):
        """The transition arrays of ``model`` drawn afresh on its mask."""
        if model.order == 1:
            return {"trans": random_trans1(rng, model.mask)}
        return {"trans1": random_trans1(rng, model.mask), "trans2": random_trans2(rng, model.mask)}

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n_states", [6, 24])
    def test_scoring_a_stack_of_differing_zero_patterns(self, order, n_states):
        rng = np.random.default_rng([230, n_states, order])
        for _ in range(4):
            models = [make_random_model(rng, order, topology, "gmm", n_states=n_states)
                      for topology in ("ltr", "circular", "custom", "custom", "ltr")]
            for t_count in (1, 2, 3, 40):
                obs = make_obs(rng, "gmm", t_count)
                scores = self._check(models, obs, paths=False)
                assert score_models(models, obs, "viterbi") == scores.tolist()
                self._check(models, obs, paths=True)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("topology", ["ltr", "circular", "custom"])
    def test_tie_heavy_paths(self, order, topology):
        rng = np.random.default_rng([231, len(topology), order])
        viterbi = viterbi1 if order == 1 else viterbi2
        for n_states in (3, 5, 8):
            model = make_random_model(rng, order, topology, "discrete", n_states=n_states)
            model = self._uniform_model(order, model.mask)
            for t_count in (1, 2, 3, 4, 9, 30):
                obs = rng.integers(0, 2, size=t_count)
                stack = _ModelStack((model,))
                want_states, want_scores, _ = oracles.dense_viterbi(stack, _one_utterance(stack, obs).logb)
                path = viterbi(model, obs)
                assert np.array_equal(path.states, want_states[0])
                assert path.log_prob == want_scores[0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_state_no_allowed_transition_reaches(self, order):
        """No state moves to state 2, so it has no predecessor in any
        transition of the last array: its row of the predecessor table is
        all padding."""
        rng = np.random.default_rng([232, order])
        n = 5
        for _ in range(6):
            allowed = rng.random((n, n)) < 0.5
            allowed[:, 2] = False
            allowed[np.arange(n), (np.arange(n) + 1) % n] = True
            allowed[1, 2] = False
            allowed[1, 3] = True
            mask = custom_topology(allowed)
            models = [self._uniform_model(order, mask, 4)]
            models += [replace(models[0], **self._random_transitions(rng, models[0]),
                               emissions=tuple(DiscreteEmission(p) for p in rng.dirichlet(np.ones(4), size=n)))
                       for _ in range(2)]
            for t_count in (1, 2, 3, 12):
                obs = rng.integers(0, 4, size=t_count)
                self._check(models, obs, paths=False)
                self._check(models, obs, paths=True)
                for model in models:
                    self._check([model], obs, paths=True)

    @pytest.mark.parametrize("order", [1, 2])
    def test_no_allowed_transition_at_all(self, order):
        """A last transition array of zeros (a model file can hold one)
        fails at frame ``order``, as the step over all predecessors fails
        it."""
        model = self._uniform_model(order, circular_topology(3))
        name = "trans" if order == 1 else "trans2"
        model = replace(model, **{name: np.zeros_like(getattr(model, name))})
        self._check([model], np.zeros(4, dtype=np.int64), paths=True)
        with pytest.raises(ImpossibleObservationError) as caught:
            (viterbi1 if order == 1 else viterbi2)(model, np.zeros(4, dtype=np.int64))
        assert caught.value.frame == order

    @pytest.mark.parametrize("order", [1, 2])
    def test_failing_models_fail_at_the_same_frame(self, order):
        """Symbols some states cannot emit make some models' best scores
        -inf: each fails at the frame the dense step fails it."""
        rng = np.random.default_rng([233, order])
        for _ in range(10):
            models = []
            for topology in ("ltr", "circular", "custom"):
                model = make_random_model(rng, order, topology, "discrete", n_states=4)
                probs = rng.dirichlet(np.ones(4), size=4) * (rng.random((4, 4)) < 0.6)
                probs[:, 0] = np.maximum(probs[:, 0], 0.1)
                probs /= probs.sum(axis=1, keepdims=True)
                models.append(replace(model, emissions=tuple(DiscreteEmission(p) for p in probs)))
            obs = rng.integers(0, 4, size=15)
            self._check(models, obs, paths=False)
            self._check(models, obs, paths=True)

    @pytest.mark.parametrize("order", [1, 2])
    def test_failing_frames_found_for_failing_models_only(self, order):
        """The recursion keeps no per-frame maxima: it runs once over the
        stack, and once more, keeping them, over only the models whose
        score is -inf; these fail at the frame the dense recursion fails
        them."""
        rng = np.random.default_rng([237, order])
        reruns = 0
        for _ in range(10):
            models = []
            for topology in ("ltr", "circular", "custom", "ltr"):
                model = make_random_model(rng, order, topology, "discrete", n_states=4)
                probs = rng.dirichlet(np.ones(4), size=4) * (rng.random((4, 4)) < 0.7)
                probs[:, 0] = np.maximum(probs[:, 0], 0.1)
                probs /= probs.sum(axis=1, keepdims=True)
                models.append(replace(model, emissions=tuple(DiscreteEmission(p) for p in probs)))
            obs = rng.integers(0, 4, size=12)
            for paths in (False, True):
                with mock.patch.object(inference, "_max_plus", wraps=inference._max_plus) as run:
                    scores = self._check(models, obs, paths)
                dead = np.flatnonzero(np.isneginf(scores))
                assert run.call_count == 1 + (len(dead) > 0)
                if len(dead):
                    assert run.call_args.args[2].shape[0] == len(dead) < len(models)
                    reruns += 1
        assert reruns > 0

    @staticmethod
    def _pair_stack(rng, pair, trans1_allows):
        """Three 4-state order-2 models with random transition arrays in
        which pair (j, k) is allowed by ``trans1`` and entered by no
        allowed triple or (``trans1_allows`` False) entered by triples
        only, with trans1 0 there in every model. The models favour the
        state path (j, k), or (j - 1, j, k): state j (j - 1) is the likely
        first state, the pair (j - 1, j) and the triple (j - 1, j, k) the
        likely moves, and each state s emits symbol s with probability
        0.7."""
        n = 4
        j, k = pair
        start = j if trans1_allows else j - 1
        models = []
        for _ in range(3):
            trans1 = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.7)
            trans2 = rng.dirichlet(np.ones(n), size=(n, n)) * (rng.random((n, n, n)) < 0.6)
            if trans1_allows:
                trans1[j, k] = 2.0
                trans2[:, j, k] = 0.0
            else:
                trans1[j, k] = 0.0
                trans1[start, j] = 2.0
                trans2[start, j, k] = 2.0
            for table in (trans1, trans2):
                sums = table.sum(axis=-1, keepdims=True)
                np.divide(table, sums, out=table, where=sums > 0)
            initial = (rng.dirichlet(np.ones(n)) + np.eye(n)[start]) / 2
            probs = np.full((n, n), 0.1) + 0.6 * np.eye(n)
            models.append(Hmm2Model(custom_topology(trans1 > 0), initial, trans1, trans2,
                                    tuple(DiscreteEmission(p) for p in probs)))
        return models

    def _check_pair_stack(self, rng, models, prefix):
        """Each model, and the stack, against the dense recursion on
        utterances of 1, 2, 3 and 12 frames that start with ``prefix``;
        returns the first model's path on ``prefix`` itself."""
        for t_count in (1, 2, 3, 12):
            obs = rng.integers(0, 4, size=t_count)
            obs[:len(prefix)] = prefix[:t_count]
            for paths in (False, True):
                self._check(models, obs, paths)
                for model in models:
                    self._check([model], obs, paths)
        return viterbi2(models[0], np.array(prefix)).states.tolist()

    def test_pair_allowed_by_trans1_that_no_triple_enters(self):
        """The pair is an entry, with only padding for predecessors: it
        can hold the best score at frame 1 alone."""
        rng = np.random.default_rng(234)
        pair = (0, 3)
        for _ in range(6):
            models = self._pair_stack(rng, pair, trans1_allows=True)
            stack = _ModelStack(models)
            at = np.flatnonzero(stack.entries.flat == 4 * pair[0] + pair[1])
            assert len(at) == 1 and np.isneginf(stack.steps[1][2][:, :, at]).all()
            assert self._check_pair_stack(rng, models, list(pair)) == list(pair)

    def test_pair_entered_only_by_triples(self):
        """The pair is an entry whose first step's log-transition is -inf
        in every model: it holds finite scores from frame 2 on."""
        rng = np.random.default_rng(235)
        pair = (1, 2)
        for _ in range(6):
            models = self._pair_stack(rng, pair, trans1_allows=False)
            assert all(model.trans1[pair] == 0.0 for model in models)
            stack = _ModelStack(models)
            at = np.flatnonzero(stack.entries.flat == 4 * pair[0] + pair[1])
            assert len(at) == 1 and np.isneginf(stack.steps[0][2][:, :, at]).all()
            assert self._check_pair_stack(rng, models, [0, 1, 2]) == [0, 1, 2]

    def test_registry_key_builds_its_entries_once(self):
        """A SpeakerRegistry key keeps its stacks, so repeated
        identification builds each stack's entries once, in either scoring
        mode: order 2's forward pass runs over them too."""
        rng = np.random.default_rng(236)
        for first, then in (("forward", "viterbi"), ("viterbi", "forward")):
            reg = SpeakerRegistry()
            for k in range(3):
                reg.add_model(f"s{k}", "w", "ltr2", make_random_model(rng, 2, "ltr", "gmm", n_states=6))
            trials = [FeatureMatrix(make_obs(rng, "gmm", n)) for n in (1, 20, 35)]
            with mock.patch.object(inference, "_slice_entries", wraps=inference._slice_entries) as build:
                for obs in trials * 2:
                    reg.identify("w", "ltr2", obs, scoring=first)
                assert build.call_count == 1
                for obs in trials * 2:
                    reg.identify("w", "ltr2", obs, scoring=then)
                assert build.call_count == 1


# (topology, state count, seed) of GMM models and utterances 40-100 times
# farther out than make_obs draws, drawn as _far_off_lane draws them, whose
# backward pass is run again rescaled; in ("ltr", 2, 384), ("ltr", 5, 83),
# ("circular", 6, 104) and ("custom", 5, 173) that rerun's slice maximum
# underflows to 0, so their beta is NaN from there back
RERUN_CASES = (("ltr", 2, 40), ("ltr", 2, 384), ("ltr", 5, 80), ("ltr", 5, 83),
               ("circular", 4, 3), ("circular", 6, 104), ("circular", 7, 11),
               ("custom", 6, 11), ("custom", 5, 173), ("custom", 7, 104))


def _far_off_lane(topology, n_states, seed):
    """A random order-2 GMM model and an utterance of 5-39 frames 40-100
    times farther out than make_obs draws, and the generator that drew
    them."""
    rng = np.random.default_rng([seed, n_states])
    model = make_random_model(rng, 2, topology, "gmm", n_states=n_states)
    return model, rng.uniform(40, 100) * make_obs(rng, "gmm", int(rng.integers(5, 40))), rng


@st.composite
def _lane_sets(draw):
    """A random order-2 GMM model of 2-7 states, left-to-right, ring or
    with a random custom mask, and 1-4 utterances of 1-40 frames, at times
    one of them 40-100 times farther out than make_obs draws; or a model
    and far-off utterance of RERUN_CASES among 0-3 ordinary ones. At times
    the model has a pair that only triples leave (its flat index, else
    None)."""
    if draw(st.booleans()):
        model, far, rng = _far_off_lane(*draw(st.sampled_from(RERUN_CASES)))
    else:
        n_states = draw(st.integers(2, 7))
        topology = draw(st.sampled_from(("ltr", "circular", "custom") if n_states >= 3 else ("ltr", "custom")))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        model = make_random_model(rng, 2, topology, "gmm", n_states=n_states)
        far = rng.uniform(40, 100) * make_obs(rng, "gmm", draw(st.integers(1, 40)))
    xs = [make_obs(rng, "gmm", n) for n in draw(st.lists(st.integers(1, 40), max_size=3))]
    if not xs or draw(st.booleans()):
        xs.insert(draw(st.integers(0, len(xs))), far)
    pair = None
    if draw(st.booleans()):
        model, pair = leaving_only_pair(model, rng)
    return model, xs, pair


class TestAllowedTransitionSteps:
    """Order 2's forward and backward passes run over the stack's slice
    entries only (_ModelStack.entries), each step summing over an entry's
    allowed predecessors (successors). At every entry, alpha, beta, the
    slice log normalizers, the failing frames and the lanes whose backward
    pass runs again are bitwise those of the steps over all N^2 pairs
    (oracles.dense_forward, oracles.dense_backward); there, every other
    pair is exactly 0 but in a lane's last backward slice, which holds the
    terminal value at every pair; and forward_backward2's (T, N, N) tables
    are bitwise theirs. Every step returns a C-contiguous array."""

    @staticmethod
    @contextlib.contextmanager
    def _contiguous_steps():
        """Within the block, every _step and _back_step result is checked
        to be C-contiguous."""
        def checked(step):
            def run(*args):
                out = step(*args)
                assert out.flags.c_contiguous
                return out
            return run
        with mock.patch.object(inference, "_step", checked(inference._step)), \
                mock.patch.object(inference, "_back_step", checked(inference._back_step)):
            yield

    @staticmethod
    def _assert_on_entries(table, dense, flat, last=None):
        """The (T, S, P) ``table`` is the (T, S, N, N) ``dense`` table at
        the entries ``flat``, bitwise, and ``dense`` is 0 at every other
        pair, but at frame last[k] of lane k, where it holds the lane's
        value there at every pair."""
        dense = dense.reshape(dense.shape[:2] + (-1,)).copy()
        assert np.array_equal(dense[..., flat], table)
        if last is not None:
            for k, t in enumerate(last):
                assert (dense[t, k] == table[t, k, 0]).all()
                dense[t, k] = 0.0
        dense[..., flat] = 0.0
        assert not dense.any()

    @classmethod
    def _check_stack(cls, models, obs):
        """Forward over the stack of ``models``, then backward with each
        model as one row, by its forward normalizers and by each slice's
        maximum; returns the stack."""
        stack = _ModelStack(models)
        rows = _one_utterance(stack, obs)
        with cls._contiguous_steps():
            rows.forward()
        bsh, shifts, alpha, log_norms = rows.bsh, rows.shifts, rows.alpha, rows.log_norms
        want_alpha, want_log_norms, want_dead = oracles.dense_forward(stack, bsh, shifts)
        cls._assert_on_entries(alpha, want_alpha, stack.entries.flat)
        assert np.array_equal(log_norms, want_log_norms)
        assert [None if e is None else e.frame for e in rows.errors] == want_dead == [None] * len(models)
        lengths = np.full(len(models), len(bsh))
        for norms in (np.exp(log_norms.T - shifts), None):
            with cls._contiguous_steps():
                beta = _backward(stack, bsh, lengths, norms)
            want_beta = oracles.dense_backward(stack, bsh, lengths, stack.terminal[:, 0], norms)
            cls._assert_on_entries(beta, want_beta, stack.entries.flat, lengths - 1 if len(bsh) > 1 else None)
        return stack

    @classmethod
    def _check_lanes(cls, model, xs):
        """The E-step's pass (a _RowPass of one row per utterance) and
        forward_backward2 against the dense passes run as that pass runs
        them: padded lanes, backward by the forward normalizers,
        and every lane with a backward value that is not finite run again
        by each slice's maximum. Returns the lanes run again."""
        lengths = np.array([len(x) for x in xs])
        T, L, N = lengths.max(), len(xs), model.n_states
        stack = _ModelStack((model,))
        bsh, shifts = np.ones((T, L, N)), np.zeros((T, L))
        for k, x in enumerate(xs):
            b, shift = _shifted_emissions(_one_utterance(stack, x).logb)
            bsh[:lengths[k], k], shifts[:lengths[k], k] = b[:, 0], shift[:, 0]
        alpha, log_norms, dead = oracles.dense_forward(stack, bsh, shifts, lengths)
        if dead != [None] * L:
            k = next(k for k, frame in enumerate(dead) if frame is not None)
            with pytest.raises(ImpossibleObservationError) as caught:
                _RowPass(stack, xs, [None] * L).forward_backward()
            assert caught.value.frame == dead[k]
            return None
        with cls._contiguous_steps():
            rows = _RowPass(stack, xs, [None] * L).forward_backward()
        flat = rows.stack.entries.flat
        assert np.array_equal(flat, stack.entries.flat)
        norms = np.exp(log_norms.T - shifts)
        norms[np.arange(T)[:, None] >= lengths] = 1.0
        terminal = 1.0 / N if model.mask.kind == "circular" else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            beta = oracles.dense_backward(stack, bsh, lengths, terminal, norms)
            lost = np.flatnonzero(~np.isfinite(beta.reshape(T, L, -1)).all(axis=(0, 2)))
            beta[:, lost] = oracles.dense_backward(stack, bsh[:, lost], lengths[lost], terminal)
        for k, n in enumerate(lengths):
            cls._assert_on_entries(rows.alpha[:n, k:k + 1], alpha[:n, k:k + 1], flat)
            assert np.array_equal(rows.log_norms[k, :n], log_norms[k, :n])
            if np.isfinite(beta[:n, k]).all():
                cls._assert_on_entries(rows.beta[:n, k:k + 1], beta[:n, k:k + 1], flat,
                                       [n - 1] if n > 1 else None)
            else:   # the rescaled rerun is NaN from some slice back, at every pair
                assert np.array_equal(rows.beta[:n, k], beta[:n, k].reshape(n, -1)[:, flat], equal_nan=True)
            public = forward_backward2(model, xs[k])
            for got, want in ((public.alpha, alpha[:n, k]), (public.beta, beta[:n, k])):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()   # NaN payloads too
        return lost

    @pytest.mark.parametrize("n_states", [5, 6, 7, 24])
    def test_stack_of_differing_zero_patterns(self, n_states):
        """A left-to-right or ring model's entries are its allowed1 pairs.
        A stack's entries hold every model's, so each step reads more
        predecessors and successors than one model allows."""
        rng = np.random.default_rng([240, n_states])
        for _ in range(3):
            models = [make_random_model(rng, 2, topology, "gmm", n_states=n_states)
                      for topology in ("ltr", "circular", "custom", "custom", "custom")]
            for model in models:
                flat = self._check_stack([model], make_obs(rng, "gmm", 25)).entries.flat
                if model.mask.kind != "custom":
                    assert np.array_equal(flat, np.flatnonzero(model.mask.allowed1))
            for t_count in (1, 2, 3, 40):
                obs = make_obs(rng, "gmm", t_count)
                self._check_stack(models[:2], obs)
                stack = self._check_stack(models, obs)
                union = np.flatnonzero(np.any([m.mask.allowed1 for m in models], axis=0))
                assert np.array_equal(stack.entries.flat, union)

    @pytest.mark.parametrize("n_states", [5, 6, 24])
    @pytest.mark.parametrize("topology", ["ltr", "circular", "custom"])
    def test_lanes_of_differing_lengths(self, topology, n_states):
        rng = np.random.default_rng([241, len(topology), n_states])
        for _ in range(3):
            model = make_random_model(rng, 2, topology, "gmm", n_states=n_states)
            xs = [make_obs(rng, "gmm", n) for n in (3, int(rng.integers(4, 60)), 2, 31)]
            assert len(self._check_lanes(model, xs)) == 0

    @pytest.mark.parametrize("topology,n_states,seed", [
        ("ltr", 6, 101), ("circular", 7, 11), ("custom", 6, 11), ("custom", 7, 104),
    ])
    def test_far_off_lane_takes_the_rescaled_rerun(self, topology, n_states, seed):
        """An utterance 40-100 times farther out than make_obs draws, beside
        ordinary ones: its backward pass by the forward normalizers
        overflows, and it alone is run again by each slice's maximum."""
        model, far, rng = _far_off_lane(topology, n_states, seed)
        xs = [make_obs(rng, "gmm", 12), far, make_obs(rng, "gmm", 50)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._check_lanes(model, xs).tolist() == [1]

    def test_pair_that_only_triples_leave(self):
        """Such a pair is an entry: its alpha is 0 at every frame, but its
        beta is not, and forward_backward2 keeps it."""
        rng = np.random.default_rng(242)
        for n_states in (3, 5, 6):
            model, pair = leaving_only_pair(make_random_model(rng, 2, "ltr", "gmm", n_states=n_states), rng)
            assert pair in _ModelStack((model,)).entries.flat
            xs = [make_obs(rng, "gmm", n) for n in (9, 4, 17)]
            assert len(self._check_lanes(model, xs)) == 0
            lat = forward_backward2(model, xs[0])
            assert not lat.alpha.reshape(9, -1)[:, pair].any()
            assert lat.beta.reshape(9, -1)[1:8, pair].all()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_lane_sets())
    def test_random_lane_sets(self, case):
        model, xs, pair = case
        if pair is not None:
            assert pair in _ModelStack((model,)).entries.flat
        self._check_lanes(model, xs)

    @pytest.mark.parametrize("n_states", [5, 6])
    def test_no_allowed_transition_at_all(self, n_states):
        """A trans2 of zeros (a model file can hold one): every entry has
        padding for predecessors; forward fails at frame 2, as the dense
        step fails it, and from there on every pair is NaN."""
        model = TestAllowedPredecessors._uniform_model(2, circular_topology(n_states))
        model = replace(model, trans2=np.zeros_like(model.trans2))
        stack = _ModelStack((model,))
        obs = np.zeros(5, dtype=np.int64)
        rows = _one_utterance(stack, obs)
        rows.forward()
        alpha, log_norms, errors = rows.alpha, rows.log_norms, rows.errors
        want_alpha, want_log_norms, want_dead = oracles.dense_forward(stack, rows.bsh, rows.shifts)
        self._assert_on_entries(alpha[:2], want_alpha[:2], stack.entries.flat)
        assert np.isnan(alpha[2:]).all() and np.isnan(want_alpha[2:]).all()
        assert np.array_equal(log_norms, want_log_norms, equal_nan=True)
        assert errors[0].frame == want_dead[0] == 2
        with pytest.raises(ImpossibleObservationError) as caught:
            forward_backward2(model, obs)
        assert caught.value.frame == 2


@st.composite
def _row_batches(draw):
    """A configuration of ALL_CONFIGS; a stack of 1-5 models of one state
    count (2-7), the first of the configuration's topology, the others
    left-to-right, ring or with a random custom mask; and 1-4 utterances
    of 1-40 frames. Discrete models at times cannot emit symbol 0, so rows
    fail; GMM utterances are at times 40-100 times farther out than
    make_obs draws; order-2 GMM stacks at times hold a model and
    far-off utterance of RERUN_CASES, whose backward rerun is NaN or not.
    Also a reordering of the models and of the utterances."""
    order, topology, emission = draw(st.sampled_from(ALL_CONFIGS))
    models, xs = [], []
    if order == 2 and emission == "gmm" and draw(st.booleans()):
        model, far, rng = _far_off_lane(*draw(st.sampled_from(RERUN_CASES)))
        models.append(model)
        xs.append(far)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = models[0].n_states if models else draw(st.integers(3 if topology == "circular" else 2, 7))
    kinds = ("ltr", "circular", "custom") if n_states >= 3 else ("ltr", "custom")
    others = draw(st.lists(st.sampled_from(kinds), max_size=4))[:4 - len(models)]
    for kind in [topology if topology in kinds else "ltr"] + others:
        model = make_random_model(rng, order, kind, emission, n_states=n_states)
        if emission == "discrete" and draw(st.integers(0, 3)) == 0:
            probs = np.array([e.probs for e in model.emissions])
            probs[:, 0] = 0.0
            model = replace(model, emissions=tuple(DiscreteEmission(p / p.sum()) for p in probs))
        models.append(model)
    for n in draw(st.lists(st.integers(1, 40), min_size=0 if xs else 1, max_size=4 - len(xs))):
        x = make_obs(rng, emission, n)
        if emission == "gmm" and draw(st.integers(0, 3)) == 0:
            x *= rng.uniform(40, 100)
        xs.insert(draw(st.integers(0, len(xs))), x)
    return models, xs, draw(st.permutations(range(len(models)))), draw(st.permutations(range(len(xs))))


class TestBatchInvariance:
    """Every row of a _RowPass, model s of a stack on utterance l, has the
    bits of that model and utterance run as a one-row pass, whatever rows
    share the pass and in whatever order: alpha, beta (rows whose rescaled
    rerun is finite or NaN), the slice log normalizers, the forward score,
    the Viterbi score and path (of a row that does not fail), and the
    failing frames. The one-row pass runs over the stack's layout, so that
    its tables are comparable, and again over the model's own layout,
    whose normalizers, scores and failing frames are the same."""

    @staticmethod
    def _frames(errors):
        return [None if e is None else (type(e), getattr(e, "frame", None)) for e in errors]

    @classmethod
    def _run(cls, stack, xs):
        """Forward, backward and Viterbi over the rows of ``stack`` on
        ``xs``: per row its tables, normalizers, scores, path and errors."""
        xs = [_checked(stack.emission, x)[0] for x in xs]
        with np.errstate(all="ignore"):
            rows = _RowPass(stack, xs, [None] * len(xs))
            rows.forward()
            rows.backward()
            viterbi = _RowPass(stack, xs, [None] * len(xs))
            states, scores = viterbi.viterbi()
        out = []
        for r, (n, ll) in enumerate(zip(rows.lengths, rows.log_likelihoods())):
            out.append((rows.alpha[:n, r].tobytes(), rows.beta[:n, r].tobytes(),
                        rows.log_norms[r, :n].tobytes(), np.float64(ll).tobytes(),
                        cls._frames(rows.errors[r:r + 1]), scores[r].tobytes(),
                        states[r, :n].tolist() if np.isfinite(scores[r]) else None,
                        cls._frames(viterbi.errors[r:r + 1])))
        return out

    @classmethod
    def _check(cls, models, xs, model_order, utterance_order):
        stack = _ModelStack(models)
        alone = {}
        for s, model in enumerate(models):
            for k, x in enumerate(xs):
                one = _ModelStack((model,))
                one.entries = stack.entries
                alone[s, k] = cls._run(one, [x])[0]
                own = cls._run(_ModelStack((model,)), [x])[0]
                assert own[2:] == alone[s, k][2:]
        for s_order, k_order in ((range(len(models)), range(len(xs))), (model_order, utterance_order)):
            shuffled = _ModelStack([models[s] for s in s_order])
            shuffled.entries = stack.entries
            got = cls._run(shuffled, [xs[k] for k in k_order])
            assert got == [alone[s, k] for k in k_order for s in s_order]

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_row_batches())
    def test_rows_are_bitwise_one_row_passes(self, case):
        self._check(*case)

    def test_reruns_finite_and_nan_share_a_pass(self):
        """Far-off lanes of RERUN_CASES, three whose rescaled rerun is NaN
        and one whose rerun is finite, beside ordinary models and
        utterances: every row keeps its bits."""
        for case in (("ltr", 5, 83), ("circular", 6, 104), ("custom", 5, 173), ("ltr", 5, 80)):
            model, far, rng = _far_off_lane(*case)
            alone = _RowPass(_ModelStack((model,)), [far], [None]).forward_backward()
            assert np.isnan(alone.beta).any() == (case != ("ltr", 5, 80))
            others = [make_random_model(rng, 2, "ltr", "gmm", n_states=model.n_states) for _ in range(2)]
            xs = [make_obs(rng, "gmm", 17), far, make_obs(rng, "gmm", 3)]
            self._check([others[0], model, others[1]], xs, [2, 1, 0], [1, 2, 0])


class TestPairStateEmbedding:
    @pytest.mark.parametrize("topology,emission", CONFIGS2)
    def test_forward_equivalence(self, topology, emission):
        rng = np.random.default_rng(230)
        for _ in range(15):
            model = make_random_model(rng, 2, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 15)))
            embedded, tail = embed_pair_states(model, obs)
            direct = forward2(model, obs).log_likelihood
            via = forward1(embedded, tail).log_likelihood
            assert via == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("topology,emission", CONFIGS2)
    def test_viterbi_equivalence(self, topology, emission):
        rng = np.random.default_rng(231)
        for _ in range(15):
            model = make_random_model(rng, 2, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 15)))
            embedded, tail = embed_pair_states(model, obs)
            direct = viterbi2(model, obs)
            composite = viterbi1(embedded, tail)
            decoded = decode_pair_path(np.asarray(composite.states), model.n_states)
            assert composite.log_prob == pytest.approx(direct.log_prob, rel=1e-9)
            np.testing.assert_array_equal(decoded, direct.states)

    def test_embedding_matches_independent_construction(self):
        rng = np.random.default_rng(232)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs = make_obs(rng, "gmm", 6)
        chain = oracles.CompositeChain(model, obs)
        embedded, tail = embed_pair_states(model, obs)
        n = model.n_states
        start_times_emission = embedded.initial
        # oracle start excludes frame-0 emission weight; the library folds
        # b(frame 0) into the start vector the same way
        np.testing.assert_allclose(start_times_emission, chain.start, rtol=1e-12)
        dense = np.zeros((n * n, n * n))
        for c in range(n * n):
            dense[c] = embedded.trans[c]
        live = chain.trans.sum(axis=1) > 0
        np.testing.assert_allclose(dense[live], chain.trans[live], rtol=1e-12)
        np.testing.assert_array_equal(np.asarray(tail), np.asarray(obs)[1:])

    def test_embedding_requires_two_frames(self):
        rng = np.random.default_rng(233)
        model = make_random_model(rng, 2, "ltr", "gmm")
        with pytest.raises(ValueError):
            embed_pair_states(model, make_obs(rng, "gmm", 1))

    def test_embedding_builds_no_triple_mask(self):
        """The embedded chain of a 12-state model has 144 states, whose
        triple mask (144**3 booleans, 2.99 MB) only order 2 reads."""
        rng = np.random.default_rng(234)
        model = make_random_model(rng, 2, "ltr", "gmm", n_states=12)
        obs = make_obs(rng, "gmm", 4)
        tracemalloc.start()
        try:
            embedded, _ = embed_pair_states(model, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert embedded.n_states == 144
        assert peak < 1_000_000

    def test_decode_pair_path_layout(self):
        # composite index c = prev * N + cur; first composite state carries
        # both frame-0 and frame-1 states
        comp = np.array([1 * 3 + 2, 2 * 3 + 0, 0 * 3 + 1])
        np.testing.assert_array_equal(decode_pair_path(comp, 3), [1, 2, 0, 1])
