import warnings

import numpy as np
import pytest

import oracles
from conftest import far_off_case, make_obs, make_random_model

from hmmsid.errors import ImpossibleObservationError
from hmmsid.features import FeatureMatrix
from hmmsid.inference import (
    forward1,
    forward_backward1,
    viterbi1,
)
from hmmsid.models import DiscreteEmission, Hmm1Model, circular_topology, ltr_topology

CONFIGS1 = [("ltr", "discrete"), ("ltr", "gmm"), ("circular", "discrete"), ("circular", "gmm")]


class TestForwardAgainstEnumeration:
    @pytest.mark.parametrize("topology,emission", CONFIGS1)
    def test_log_likelihood_matches_enumeration(self, topology, emission):
        rng = np.random.default_rng(100)
        for _ in range(40):
            model = make_random_model(rng, 1, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            want = oracles.enum_log_likelihood(model, obs)
            got = forward1(model, obs).log_likelihood
            assert got == pytest.approx(want, rel=1e-10)

    def test_accepts_feature_matrix_wrapper(self):
        rng = np.random.default_rng(101)
        model = make_random_model(rng, 1, "ltr", "gmm")
        x = make_obs(rng, "gmm", 5)
        raw = forward1(model, x).log_likelihood
        wrapped = forward1(model, FeatureMatrix(x)).log_likelihood
        assert wrapped == raw

    def test_single_frame_sequence(self):
        rng = np.random.default_rng(102)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs = make_obs(rng, "gmm", 1)
        want = oracles.enum_log_likelihood(model, obs)
        assert forward1(model, obs).log_likelihood == pytest.approx(want, rel=1e-12)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(103)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs = make_obs(rng, "gmm", 2000)
        lat = forward1(model, obs)
        assert np.isfinite(lat.log_likelihood)
        assert np.isfinite(lat.alpha).all()


class TestLatticeContract:
    def test_scales_encode_log_likelihood(self):
        rng = np.random.default_rng(110)
        model = make_random_model(rng, 1, "ltr", "gmm")
        obs = make_obs(rng, "gmm", 20)
        lat = forward1(model, obs)
        assert lat.log_likelihood == lat.slice_log_norms.sum()
        # slice t's log norm is log P(frame t | frames before t)
        prefix = [forward1(model, obs[:t]).log_likelihood for t in range(1, 21)]
        np.testing.assert_allclose(np.diff(prefix), lat.slice_log_norms[1:], rtol=1e-12)
        assert lat.slice_log_norms[0] == prefix[0]

    def test_alpha_slices_are_normalized(self):
        rng = np.random.default_rng(111)
        model = make_random_model(rng, 1, "circular", "discrete")
        obs = make_obs(rng, "discrete", 15)
        lat = forward1(model, obs)
        np.testing.assert_allclose(lat.alpha.sum(axis=1), 1.0, atol=1e-12)

    def test_alpha_matches_conditional_state_given_prefix(self):
        # normalized alpha[t] should equal P(state_t | frames_0..t)
        rng = np.random.default_rng(112)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs = make_obs(rng, "gmm", 5)
        lat = forward1(model, obs)
        for t in range(1, 6):
            gamma_prefix = oracles.enum_state_posteriors(model, obs[:t])
            np.testing.assert_allclose(lat.alpha[t - 1], gamma_prefix[-1], rtol=1e-9, atol=1e-12)


class TestBackwardAndPosteriors:
    @pytest.mark.parametrize("topology,emission", CONFIGS1)
    def test_state_posteriors_match_enumeration(self, topology, emission):
        rng = np.random.default_rng(120)
        for _ in range(15):
            model = make_random_model(rng, 1, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            lat = forward_backward1(model, obs)
            post = lat.alpha * lat.beta
            post /= post.sum(axis=1, keepdims=True)
            want = oracles.enum_state_posteriors(model, obs)
            np.testing.assert_allclose(post, want, rtol=1e-8, atol=1e-12)

    def test_alpha_beta_product_recovers_terminal_constant(self):
        # under shared-norm scaling, sum_j alpha[t,j] beta[t,j] times the
        # slice normalizer equals the terminal backward constant at every t
        rng = np.random.default_rng(122)
        for topology, term_of in (("circular", lambda n: 1.0 / n), ("ltr", lambda n: 1.0)):
            model = make_random_model(rng, 1, topology, "gmm")
            obs = make_obs(rng, "gmm", 12)
            lat = forward_backward1(model, obs)
            sums = (lat.alpha * lat.beta).sum(axis=1)
            norms = np.exp(lat.slice_log_norms - lat.emission_shifts)
            np.testing.assert_allclose(sums * norms, term_of(model.n_states), rtol=1e-9)

    @pytest.mark.parametrize("topology,emission", CONFIGS1)
    def test_transition_sum_matches_enumeration_at_every_t(self, topology, emission):
        # sum_ij alpha[t,i] a[i,j] b[t+1,j] beta[t+1,j] is the same value at
        # every t (the total probability, here under the lattice's scaling),
        # and its summands over that value are the pair posteriors
        rng = np.random.default_rng(140)
        for _ in range(10):
            model = make_random_model(rng, 1, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            lat = forward_backward1(model, obs)
            b = np.exp(oracles.emission_log_matrix(model, obs) - lat.emission_shifts[:, None])
            terms = lat.alpha[:-1, :, None] * model.trans * (b[1:] * lat.beta[1:])[:, None, :]
            sums = terms.sum(axis=(1, 2))
            np.testing.assert_allclose(sums, sums[0], rtol=1e-10)
            want = oracles.enum_pair_posteriors(model, obs)
            np.testing.assert_allclose(terms / sums[:, None, None], want, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("seed,topology", [
        (54, "ltr"), (85, "ltr"), (136, "ltr"), (1234, "circular"), (840, "circular"),
    ], ids=["54", "85", "136", "circular-1234", "circular-840"])
    def test_far_off_utterance_keeps_beta_finite(self, seed, topology):
        """Dividing beta by a subnormal forward normalizer overflowed to
        inf and NaN; the lane is rescaled slice by slice instead."""
        model, obs = far_off_case(seed, 1, topology)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lat = forward_backward1(model, obs)
        assert np.isfinite(lat.beta).all()
        post = lat.alpha * lat.beta
        post /= post.sum(axis=1, keepdims=True)
        want = oracles.enum_state_posteriors(model, obs)
        np.testing.assert_allclose(post, want, rtol=1e-8, atol=1e-12)


class TestViterbi:
    @pytest.mark.parametrize("topology,emission", CONFIGS1)
    def test_best_path_matches_enumeration(self, topology, emission):
        rng = np.random.default_rng(130)
        for _ in range(40):
            model = make_random_model(rng, 1, topology, emission)
            obs = make_obs(rng, emission, int(rng.integers(2, 7)))
            want_path, want_score = oracles.enum_best_path(model, obs)
            got = viterbi1(model, obs)
            assert got.log_prob == pytest.approx(want_score, rel=1e-10)
            np.testing.assert_array_equal(got.states, want_path)

    def test_tie_break_prefers_low_state_at_each_backtrack_step(self):
        # fully uniform model: every feasible path ties, so the documented
        # tie-break (lowest index at each backtracking step) decides
        mask = circular_topology(3)
        model = Hmm1Model(
            mask=mask,
            initial=np.full(3, 1.0 / 3.0),
            trans=np.where(mask.allowed1, 1.0 / 3.0, 0.0),
            emissions=tuple(DiscreteEmission(np.array([0.5, 0.5])) for _ in range(3)),
        )
        obs = np.zeros(4, dtype=np.int64)
        want_path, want_score = oracles.enum_best_path(model, obs)
        got = viterbi1(model, obs)
        assert got.log_prob == pytest.approx(want_score, rel=1e-12)
        np.testing.assert_array_equal(got.states, want_path)

    def test_path_respects_topology(self):
        rng = np.random.default_rng(131)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        obs = make_obs(rng, "gmm", 10)
        states = viterbi1(model, obs).states
        assert (np.diff(states) >= 0).all()

    def test_path_score_matches_path_log_prob(self):
        rng = np.random.default_rng(132)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs = make_obs(rng, "gmm", 9)
        path = viterbi1(model, obs)
        assert oracles.path_log_probs(model, obs, path.states[None])[0] == pytest.approx(
            path.log_prob, rel=1e-12
        )


class TestPathLogProbs:
    """The oracle's path score, which the Viterbi tests compare against."""

    def test_hand_computed_value(self):
        mask = ltr_topology(2, skip_width=1)
        model = Hmm1Model(
            mask=mask,
            initial=np.array([1.0, 0.0]),
            trans=np.array([[0.6, 0.4], [0.0, 1.0]]),
            emissions=(
                DiscreteEmission(np.array([0.9, 0.1])),
                DiscreteEmission(np.array([0.2, 0.8])),
            ),
        )
        obs = np.array([0, 1, 1])
        want = np.log(1.0) + np.log(0.9) + np.log(0.4) + np.log(0.8) + np.log(1.0) + np.log(0.8)
        got = oracles.path_log_probs(model, obs, np.array([[0, 1, 1]]))[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_forbidden_transition_gives_minus_inf(self):
        rng = np.random.default_rng(150)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        obs = make_obs(rng, "gmm", 3)
        assert np.isneginf(oracles.path_log_probs(model, obs, np.array([[2, 1, 0]]))[0])


class TestImpossibleObservations:
    def test_all_states_zero_density_raises_with_frame_index(self):
        mask = circular_topology(3)
        model = Hmm1Model(
            mask=mask,
            initial=np.full(3, 1.0 / 3.0),
            trans=np.where(mask.allowed1, 1.0 / 3.0, 0.0),
            emissions=tuple(DiscreteEmission(np.array([1.0, 0.0])) for _ in range(3)),
        )
        obs = np.array([0, 0, 1, 0])
        with pytest.raises(ImpossibleObservationError) as err:
            forward1(model, obs)
        assert err.value.frame == 2

    def test_unreachable_mass_raises_even_with_finite_densities(self):
        # start state cannot emit symbol 0, other states could, but no mass
        # reaches them at frame 0
        mask = ltr_topology(2, skip_width=1)
        model = Hmm1Model(
            mask=mask,
            initial=np.array([1.0, 0.0]),
            trans=np.array([[0.5, 0.5], [0.0, 1.0]]),
            emissions=(
                DiscreteEmission(np.array([0.0, 1.0])),
                DiscreteEmission(np.array([1.0, 0.0])),
            ),
        )
        with pytest.raises(ImpossibleObservationError) as err:
            forward1(model, np.array([0, 0]))
        assert err.value.frame == 0

    def test_viterbi_raises_on_impossible_frame(self):
        mask = circular_topology(3)
        model = Hmm1Model(
            mask=mask,
            initial=np.full(3, 1.0 / 3.0),
            trans=np.where(mask.allowed1, 1.0 / 3.0, 0.0),
            emissions=tuple(DiscreteEmission(np.array([1.0, 0.0])) for _ in range(3)),
        )
        with pytest.raises(ImpossibleObservationError):
            viterbi1(model, np.array([0, 1]))

    def test_mismatched_but_possible_data_does_not_raise(self):
        # far-away continuous data underflows naive linear math but must
        # survive the shifted/scaled pass
        rng = np.random.default_rng(152)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs = make_obs(rng, "gmm", 50) + 60.0
        lat = forward1(model, obs)
        assert np.isfinite(lat.log_likelihood)
        assert lat.log_likelihood < -1e4


class TestDiscreteSymbols:
    """Scoring accepts exactly the symbol sequences Baum-Welch accepts: a
    float sequence of integral values scores like the ints, NaN or 1.5 is
    named by frame."""

    @pytest.mark.parametrize("topology", ["ltr", "circular"])
    def test_integral_floats_score_like_ints(self, topology):
        rng = np.random.default_rng(153)
        model = make_random_model(rng, 1, topology, "discrete")
        obs = make_obs(rng, "discrete", 12)
        floats = obs.astype(np.float64)
        assert forward1(model, floats).log_likelihood == forward1(model, obs).log_likelihood
        got, want = viterbi1(model, floats), viterbi1(model, obs)
        assert got.log_prob == want.log_prob
        assert np.array_equal(got.states, want.states)

    @pytest.mark.parametrize("score", [forward1, viterbi1])
    @pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (np.inf, "inf"), (1.5, "1.5")])
    def test_non_integer_symbol_named_by_frame(self, score, bad, shown):
        rng = np.random.default_rng(154)
        model = make_random_model(rng, 1, "ltr", "discrete")
        obs = make_obs(rng, "discrete", 6).astype(np.float64)
        obs[3] = bad
        with pytest.raises(ValueError, match=rf"^non-integer symbol {shown} at frame 3$"):
            score(model, obs)
