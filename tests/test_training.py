import itertools
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2

import oracles
from conftest import ALL_CONFIGS, far_off_case, make_obs, make_random_model

from hmmsid.errors import ImpossibleObservationError, UtteranceTooShortError
from hmmsid.features import FeatureMatrix, FeatureMeta
from hmmsid.inference import (
    _ModelStack,
    forward1,
    forward2,
    forward_backward1,
    forward_backward2,
)
from hmmsid.models import (
    DiscreteEmission,
    GmmEmission,
    Hmm1Model,
    _logsumexp,
    _transitions,
    custom_topology,
    validate,
)
from hmmsid import inference, training
from hmmsid.training import (
    TrainConfig,
    VariantSpec,
    baum_welch1,
    baum_welch2,
    segmental_kmeans_init,
    train,
)

TIGHT = TrainConfig(max_iterations=10, rel_tol=1e-15)


def _welch(model, obs_set, config):
    return baum_welch1(model, obs_set, config) if model.order == 1 else baum_welch2(model, obs_set, config)


def _total_ll(model, obs_set):
    fwd = forward1 if model.order == 1 else forward2
    return sum(fwd(model, o).log_likelihood for o in obs_set)


class TestMonotonicity:
    @pytest.mark.parametrize("order,topology,emission", ALL_CONFIGS)
    def test_log_likelihood_never_drops(self, order, topology, emission):
        rng = np.random.default_rng(300 + order)
        for _ in range(4):
            model = make_random_model(rng, order, topology, emission)
            obs_set = [make_obs(rng, emission, int(rng.integers(6, 12))) for _ in range(3)]
            report = _welch(model, obs_set, TIGHT)
            lls = report.log_likelihoods
            assert len(lls) == 10
            for a, b in zip(lls, lls[1:]):
                assert b - a >= -1e-8

    @pytest.mark.parametrize("order,seed", [(1, 54), (2, 801)])
    def test_far_off_utterance_trains(self, order, seed):
        """Its backward table overflowed, so the second E-step read NaN
        parameters and failed as "emission density is NaN"."""
        model, x = far_off_case(seed, order)
        lls = _welch(model, [x], TrainConfig(max_iterations=3)).log_likelihoods
        assert np.isfinite(lls).all()
        assert lls[0] < lls[1] < lls[2]

    @pytest.mark.parametrize("max_iterations", [1, 3])
    @pytest.mark.parametrize("seed,order,topology,frame", [
        (266, 1, "ltr", 0), (253, 2, "ltr", 1), (1339, 1, "circular", 0),
        (673, 2, "circular", 1), (201, 1, "circular", 14), (53, 2, "circular", 16),
    ])
    def test_lost_posterior_mass_names_utterance_and_frame(self, seed, order, topology,
                                                           frame, max_iterations):
        """Where the forward and backward passes share no path at a frame,
        its state posterior (the first four cases) or its transition
        posterior (the last two) is 0/0. Baum-Welch raises, with no numpy
        warning, instead of returning NaN parameters, failing later as
        "emission density is NaN" or silently keeping transition rows."""
        model, x = far_off_case(seed, order, topology)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                _welch(model, [FeatureMatrix(x, FeatureMeta(source="far"))],
                       TrainConfig(max_iterations=max_iterations))
        assert str(caught.value).startswith(
            f"utterance 'far': posteriors are not finite at frame {frame}: "
        )

    @pytest.mark.parametrize("order,topology,emission", ALL_CONFIGS)
    def test_invariants_hold_after_every_iteration(self, order, topology, emission):
        rng = np.random.default_rng(320 + order)
        model = make_random_model(rng, order, topology, emission)
        obs_set = [make_obs(rng, emission, 8) for _ in range(2)]
        one = TrainConfig(max_iterations=1, rel_tol=1e-15)
        for _ in range(6):
            report = _welch(model, obs_set, one)
            model = report.model
            assert validate(model) == []

    def test_chained_single_steps_equal_one_run(self):
        rng = np.random.default_rng(330)
        model = make_random_model(rng, 2, "circular", "gmm")
        obs_set = [make_obs(rng, "gmm", 9) for _ in range(2)]
        whole = baum_welch2(model, obs_set, TrainConfig(max_iterations=4, rel_tol=1e-15))
        stepped = model
        lls = []
        for _ in range(4):
            rep = baum_welch2(stepped, obs_set, TrainConfig(max_iterations=1, rel_tol=1e-15))
            stepped = rep.model
            lls.extend(rep.log_likelihoods)
        np.testing.assert_allclose(lls, whole.log_likelihoods, rtol=1e-12)
        np.testing.assert_allclose(stepped.trans2, whole.model.trans2, rtol=1e-12)


class TestReportedLikelihoods:
    def test_lls_are_the_prestep_totals(self):
        rng = np.random.default_rng(340)
        model = make_random_model(rng, 1, "circular", "gmm")
        obs_set = [make_obs(rng, "gmm", 10) for _ in range(2)]
        report = baum_welch1(model, obs_set, TrainConfig(max_iterations=3, rel_tol=1e-15))
        assert report.log_likelihoods[0] == pytest.approx(_total_ll(model, obs_set), rel=1e-12)
        # the final stored model carries one update beyond the last recorded ll
        assert _total_ll(report.model, obs_set) >= report.log_likelihoods[-1] - 1e-8

    def test_convergence_flag_and_early_stop(self):
        rng = np.random.default_rng(341)
        model = make_random_model(rng, 1, "ltr", "gmm")
        obs_set = [make_obs(rng, "gmm", 8)]
        report = baum_welch1(model, obs_set, TrainConfig(max_iterations=50, rel_tol=1e9))
        assert report.converged
        assert report.iterations_run == 2

    def test_single_iteration_neither_converges_nor_stalls(self):
        rng = np.random.default_rng(342)
        model = make_random_model(rng, 2, "ltr", "discrete")
        obs_set = [make_obs(rng, "discrete", 8)]
        report = baum_welch2(model, obs_set, TrainConfig(max_iterations=1))
        assert not report.converged
        assert report.iterations_run == 1
        assert report.n_utterances == 1

    def test_training_metadata_contents(self):
        rng = np.random.default_rng(343)
        model = make_random_model(rng, 1, "ltr", "gmm")
        report = baum_welch1(model, [make_obs(rng, "gmm", 8)], TrainConfig(max_iterations=2))
        meta = report.training_metadata(seed=7)
        assert meta["iterations"] == 2
        assert meta["converged"] is False
        assert meta["n_utterances"] == 1
        assert meta["seed"] == 7
        assert meta["final_log_likelihood"] == pytest.approx(report.final_log_likelihood)


class TestUpdateEquations:
    def test_order1_discrete_update_matches_enumeration_statistics(self):
        rng = np.random.default_rng(350)
        model = make_random_model(rng, 1, "circular", "discrete")
        obs_set = [make_obs(rng, "discrete", 6) for _ in range(2)]
        floor = 1e-8
        cfg = TrainConfig(max_iterations=1, transition_floor=floor, mixture_weight_floor=1e-6)
        got = baum_welch1(model, obs_set, cfg).model

        xi_sum = np.zeros((model.n_states, model.n_states))
        gamma0 = np.zeros(model.n_states)
        sym_counts = np.zeros((model.n_states, 4))
        for obs in obs_set:
            xi_sum += oracles.enum_pair_posteriors(model, obs).sum(axis=0)
            g = oracles.enum_state_posteriors(model, obs)
            gamma0 += g[0]
            for t, symbol in enumerate(np.asarray(obs)):
                sym_counts[:, symbol] += g[t]

        want_trans = np.zeros_like(model.trans)
        for i in range(model.n_states):
            row = np.where(model.mask.allowed1[i], np.maximum(xi_sum[i], floor), 0.0)
            want_trans[i] = row / row.sum()
        np.testing.assert_allclose(got.trans, want_trans, rtol=1e-8, atol=1e-12)

        want_init = gamma0 / len(obs_set)
        want_init /= want_init.sum()
        np.testing.assert_allclose(got.initial, want_init, rtol=1e-8)

        for s in range(model.n_states):
            vals = np.maximum(sym_counts[s], 1e-6)
            np.testing.assert_allclose(
                got.emissions[s].probs, vals / vals.sum(), rtol=1e-8, atol=1e-12
            )

    def test_order1_single_gaussian_update_matches_enumeration_statistics(self):
        rng = np.random.default_rng(351)
        model = make_random_model(rng, 1, "circular", "gmm", n_mixtures=1)
        obs_set = [make_obs(rng, "gmm", 6) for _ in range(2)]
        cfg = TrainConfig(max_iterations=1, variance_floor=1e-12)
        got = baum_welch1(model, obs_set, cfg).model
        for s in range(model.n_states):
            num_mean = np.zeros(2)
            num_sq = np.zeros(2)
            den = 0.0
            for obs in obs_set:
                g = oracles.enum_state_posteriors(model, obs)[:, s]
                num_mean += g @ obs
                num_sq += g @ (obs**2)
                den += g.sum()
            mean = num_mean / den
            var = num_sq / den - mean**2
            np.testing.assert_allclose(got.emissions[s].means[0], mean, rtol=1e-8)
            np.testing.assert_allclose(got.emissions[s].variances[0], var, rtol=1e-6)

    @pytest.mark.parametrize("topology,emission", [("circular", "gmm"), ("ltr", "gmm"), ("circular", "discrete")])
    def test_order2_update_matches_composite_chain_reference(self, topology, emission):
        rng = np.random.default_rng(352)
        model = make_random_model(rng, 2, topology, emission)
        obs_set = [make_obs(rng, emission, int(rng.integers(4, 8))) for _ in range(2)]
        cfg = TrainConfig(max_iterations=1)
        got = baum_welch2(model, obs_set, cfg)
        want = oracles.em_step2_reference(
            model,
            [np.asarray(o) for o in obs_set],
            variance_floor=cfg.variance_floor,
            weight_floor=cfg.mixture_weight_floor,
            transition_floor=cfg.transition_floor,
        )
        assert got.log_likelihoods[0] == pytest.approx(want["log_likelihood"], rel=1e-10)
        np.testing.assert_allclose(got.model.trans2, want["trans2"], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(got.model.trans1, want["trans1"], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(got.model.initial, want["initial"], rtol=1e-8, atol=1e-12)
        for s in range(model.n_states):
            if emission == "discrete":
                np.testing.assert_allclose(
                    got.model.emissions[s].probs, want["emissions"][s], rtol=1e-8, atol=1e-12
                )
            else:
                w, mu, var = want["emissions"][s]
                np.testing.assert_allclose(got.model.emissions[s].weights, w, rtol=1e-8, atol=1e-12)
                np.testing.assert_allclose(got.model.emissions[s].means, mu, rtol=1e-7, atol=1e-10)
                np.testing.assert_allclose(got.model.emissions[s].variances, var, rtol=1e-6, atol=1e-10)

    def test_ltr_keeps_pinned_start_state(self):
        rng = np.random.default_rng(353)
        model = make_random_model(rng, 1, "ltr", "gmm")
        report = baum_welch1(model, [make_obs(rng, "gmm", 10)], TrainConfig(max_iterations=3))
        np.testing.assert_array_equal(report.model.initial, model.initial)


class TestFloors:
    def test_transition_floor_respected_on_updated_rows(self):
        rng = np.random.default_rng(360)
        floor = 1e-3
        model = make_random_model(rng, 1, "circular", "gmm")
        obs_set = [make_obs(rng, "gmm", 20) for _ in range(2)]
        report = baum_welch1(model, obs_set, TrainConfig(max_iterations=5, transition_floor=floor))
        trans = report.model.trans
        assert trans[model.mask.allowed1].min() >= floor * 0.9

    def test_variance_floor_scales_with_data_spread(self):
        rng = np.random.default_rng(361)
        scale = 50.0
        obs_set = [scale * make_obs(rng, "gmm", 30) for _ in range(2)]
        variant = VariantSpec(order=1, topology="ltr", n_states=2, n_mixtures=2)
        cfg = TrainConfig(max_iterations=5, variance_floor=1e-4)
        report = train(variant, obs_set, cfg)
        all_frames = np.concatenate([np.asarray(o) for o in obs_set])
        floor_d = 1e-4 * all_frames.var(axis=0)
        for e in report.model.emissions:
            assert (e.variances >= floor_d[None, :] * 0.999).all()

    @pytest.mark.parametrize("order", [1, 2])
    def test_frame_overflowing_the_pooled_variance_is_named(self, order):
        """One frame of 1e200 makes the pooled variance, and so every
        variance floor, infinite. train and baum_welch1/2 raise ValueError
        naming the utterance and the frame, with no numpy warning, instead
        of failing later as "emission density is NaN (zero variance?)".
        Where a mixture component sits at the frame, so that the E-step
        passes (its second moments overflow, quietly), Baum-Welch raises
        before its first update, with no numpy warning either."""
        rng = np.random.default_rng([363, order])
        obs_set = [FeatureMatrix(make_obs(rng, "gmm", 12), FeatureMeta(source=f"u{u}")) for u in range(3)]
        obs_set[1].frames[3, 1] = -1e200
        message = r"^feature value -1e\+200 in dimension 1 at utterance 'u1', frame 3 overflows the pooled variance"
        model = make_random_model(rng, order, "ltr", "gmm", n_states=3)
        means = np.array([e.means for e in model.emissions])
        means[:, 0, 1] = -1e200
        model = replace(model, emissions=tuple(
            GmmEmission(e.weights, m, e.variances) for e, m in zip(model.emissions, means)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                train(VariantSpec(order=order, n_states=3, n_mixtures=2), obs_set, TrainConfig(max_iterations=2))
            with pytest.raises(ValueError, match=message):
                _welch(model, obs_set, TrainConfig(max_iterations=2))

    def test_mixture_weights_stay_positive(self):
        rng = np.random.default_rng(362)
        obs_set = [make_obs(rng, "gmm", 25) for _ in range(2)]
        variant = VariantSpec(order=1, topology="circular", n_states=3, n_mixtures=3)
        report = train(variant, obs_set, TrainConfig(max_iterations=8))
        for e in report.model.emissions:
            assert e.weights.min() >= 1e-6 * 0.9


class TestSegmentalKmeans:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(370)
        obs_set = [make_obs(rng, "gmm", 20) for _ in range(3)]
        a = segmental_kmeans_init(obs_set, 4, 2, seed=9)
        b = segmental_kmeans_init(obs_set, 4, 2, seed=9)
        for ea, eb in zip(a, b):
            np.testing.assert_array_equal(ea.means, eb.means)
            np.testing.assert_array_equal(ea.weights, eb.weights)

    def test_produces_full_mixture_shapes(self):
        rng = np.random.default_rng(371)
        obs_set = [make_obs(rng, "gmm", 15) for _ in range(2)]
        emissions = segmental_kmeans_init(obs_set, 3, 4, seed=0)
        assert len(emissions) == 3
        for e in emissions:
            assert e.weights.shape == (4,)
            assert e.means.shape == (4, 2)
            assert (e.variances > 0).all()
            assert e.weights.sum() == pytest.approx(1.0)

    def test_separated_clusters_are_found(self):
        rng = np.random.default_rng(372)
        lump_a = rng.normal(0.0, 0.1, size=(30, 2))
        lump_b = rng.normal(8.0, 0.1, size=(30, 2))
        frames = np.concatenate([lump_a, lump_b])
        emissions = segmental_kmeans_init([frames], 1, 2, seed=1)
        centers = np.sort(emissions[0].means[:, 0])
        assert centers[0] == pytest.approx(0.0, abs=0.5)
        assert centers[1] == pytest.approx(8.0, abs=0.5)

    def test_too_short_utterance_rejected(self):
        rng = np.random.default_rng(373)
        with pytest.raises(UtteranceTooShortError):
            segmental_kmeans_init([make_obs(rng, "gmm", 3)], 5, 2, seed=0)

    def test_more_mixtures_than_frames_is_padded(self):
        rng = np.random.default_rng(374)
        obs_set = [make_obs(rng, "gmm", 4)]
        emissions = segmental_kmeans_init(obs_set, 2, 8, seed=0)
        for e in emissions:
            assert e.weights.shape == (8,)
            assert np.isfinite(e.means).all()

    @pytest.mark.parametrize("n_states, n_mixtures, message", [
        (0, 2, "n_states must be >= 1"),
        (3, 0, "n_mixtures must be >= 1"),
    ])
    def test_counts_below_one_rejected(self, n_states, n_mixtures, message):
        obs_set = [make_obs(np.random.default_rng(375), "gmm", 12)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            segmental_kmeans_init(obs_set, n_states, n_mixtures)


class TestKmeans:
    """training._kmeans against scipy 1.17's kmeans2, the reference it
    reproduces: the same centers and labels, bit for bit, with the
    generator left in the same state. Only this test imports scipy's
    k-means."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        n_dims=st.integers(1, 12),
        extra=st.integers(0, 40),
        rows=st.sampled_from(["distinct", "on a grid", "duplicated", "identical"]),
    )
    def test_matches_scipy_kmeans2(self, seed, k, n_dims, extra, rows):
        draw = np.random.default_rng(seed)
        n = k + extra
        data = draw.standard_normal((n, n_dims))
        if rows == "on a grid":          # ties between distances
            data = np.round(2.0 * data) / 2.0
        elif rows == "duplicated":       # empty clusters
            data = data[draw.integers(0, max(1, n // 3), n)]
        elif rows == "identical":        # every squared distance 0 at the start
            data = np.repeat(data[:1], n, axis=0)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers, labels = training._kmeans(data, k, ours)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # kmeans2 warns of each empty cluster
            want_centers, want_labels = kmeans2(data, k, iter=20, minit="++", seed=theirs)
        assert centers.tobytes() == want_centers.tobytes()
        np.testing.assert_array_equal(labels, want_labels)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_far_off_rows_raise_no_warning(self):
        """Squares that overflow are as quiet as in scipy's C loops, so
        training on a far-off frame warns no more than before."""
        data = np.random.default_rng(376).standard_normal((30, 6))
        data[4] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            training._kmeans(data, 3, np.random.default_rng(0))


def _uniform_discrete(order, topology, n_states, n_symbols):
    """train's starting chain of a discrete variant."""
    variant = VariantSpec(order=order, topology=topology, n_states=n_states,
                          n_mixtures=n_symbols, emission="discrete")
    return training._uniform_init(variant, [DiscreteEmission._placeholder(n_symbols)] * n_states)


class TestInitializers:
    def test_circular_inits_are_uniform_on_masks(self):
        m1 = _uniform_discrete(1, "circular", 4, 3)
        assert np.allclose(m1.initial, 0.25)
        assert np.allclose(m1.trans[m1.mask.allowed1], 1.0 / 3.0)
        m2 = _uniform_discrete(2, "circular", 4, 3)
        assert np.allclose(m2.trans2[m2.mask.allowed2], 1.0 / 3.0)
        assert validate(m1) == [] and validate(m2) == []

    def test_ltr_init_pins_start_and_normalizes_rows(self):
        m = _uniform_discrete(1, "ltr", 4, 3)
        assert m.initial[0] == 1.0 and m.initial[1:].sum() == 0.0
        np.testing.assert_allclose(m.trans.sum(axis=1), 1.0)
        m2 = _uniform_discrete(2, "ltr", 4, 3)
        sums = m2.trans2.sum(axis=2)
        np.testing.assert_allclose(sums[m2.mask.allowed1], 1.0)
        assert validate(m2) == []


class TestTrainDispatch:
    @pytest.mark.parametrize("label,order,topology", [
        ("ltr1", 1, "ltr"), ("ltr2", 2, "ltr"), ("circ1", 1, "circular"), ("circ2", 2, "circular"),
    ])
    def test_variants_build_matching_models(self, label, order, topology):
        rng = np.random.default_rng(380)
        obs_set = [make_obs(rng, "gmm", 12) for _ in range(2)]
        variant = VariantSpec(order=order, topology=topology, n_states=3, n_mixtures=2)
        assert variant.label == label
        report = train(variant, obs_set, TrainConfig(max_iterations=3))
        assert report.model.order == order
        assert report.model.mask.kind == topology
        assert validate(report.model) == []

    def test_discrete_variant_trains(self):
        rng = np.random.default_rng(381)
        obs_set = [make_obs(rng, "discrete", 10) for _ in range(2)]
        variant = VariantSpec(order=1, topology="circular", n_states=3, n_mixtures=4, emission="discrete")
        report = train(variant, obs_set, TrainConfig(max_iterations=4))
        assert report.model.emissions[0].probs.shape == (4,)
        for a, b in zip(report.log_likelihoods, report.log_likelihoods[1:]):
            assert b - a >= -1e-8

    def test_symmetrize_flag_projects_ring(self):
        rng = np.random.default_rng(382)
        obs_set = [make_obs(rng, "gmm", 12) for _ in range(2)]
        variant = VariantSpec(order=1, topology="circular", n_states=3, n_mixtures=1)
        plain = train(variant, obs_set, TrainConfig(max_iterations=3, seed=1))
        proj = train(variant, obs_set, TrainConfig(max_iterations=3, seed=1, symmetrize=True))
        avg = (plain.model.trans + plain.model.trans.T) / 2
        expect = np.where(plain.model.mask.allowed1, avg, 0.0)
        expect /= expect.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(proj.model.trans, expect, rtol=1e-10)

    def test_order2_rejects_two_frame_utterances(self):
        rng = np.random.default_rng(383)
        obs_set = [make_obs(rng, "gmm", 2)]
        model = make_random_model(rng, 2, "circular", "gmm")
        with pytest.raises(UtteranceTooShortError):
            baum_welch2(model, obs_set, TrainConfig(max_iterations=1))

    def test_bad_variant_specs_rejected(self):
        with pytest.raises(ValueError):
            VariantSpec(order=3)
        with pytest.raises(ValueError):
            VariantSpec(topology="grid")
        with pytest.raises(ValueError):
            VariantSpec(n_states=0)
        with pytest.raises(ValueError):
            VariantSpec(emission="histogram")

    def test_bad_train_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            TrainConfig(variance_floor=-1.0)


def _utterances_with_inf():
    """Three named utterances; frame 7 of "u1" holds an inf."""
    rng = np.random.default_rng(390)
    out = []
    for u in range(3):
        frames = make_obs(rng, "gmm", 12, n_dims=3)
        if u == 1:
            frames[7, 2] = np.inf
        out.append(FeatureMatrix(frames, FeatureMeta(source=f"u{u}")))
    return out


class TestNonFiniteInput:
    """A non-finite frame is rejected by name before any pooling, so no
    numpy warning or library error stands in for the message."""

    def test_train_names_utterance_and_frame(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"utterance 'u1', frame 7"):
                train(VariantSpec(n_states=3, n_mixtures=1), _utterances_with_inf())

    @pytest.mark.parametrize("order", [1, 2])
    def test_baum_welch_names_utterance_and_frame(self, order):
        model = make_random_model(np.random.default_rng(391), order, "ltr", "gmm", n_dims=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"utterance 'u1', frame 7"):
                _welch(model, _utterances_with_inf(), TrainConfig(max_iterations=1))

    def test_bare_arrays_are_named_by_index(self):
        obs_set = [u.frames for u in _utterances_with_inf()]
        with pytest.raises(ValueError, match=r"utterance 1, frame 7"):
            segmental_kmeans_init(obs_set, 3, 1)


class TestObservationRule:
    """train checks every utterance with the emission kind's observation
    rule, whose errors name the utterance."""

    def test_continuous_utterance_that_is_not_a_matrix(self):
        rng = np.random.default_rng(393)
        obs_set = [make_obs(rng, "gmm", 12), make_obs(rng, "gmm", 12)[:, 0]]
        with pytest.raises(ValueError, match=r"^utterance 1: continuous observations "
                                             r"must be \(T, D\), got shape \(12,\)$"):
            train(VariantSpec(n_states=3, n_mixtures=1), obs_set)

    def test_continuous_utterances_without_coefficients(self):
        obs_set = [np.zeros((12, 0)), np.zeros((9, 0))]
        with pytest.raises(ValueError, match=r"^utterance 0: continuous observations "
                                             r"have 0 coefficients per frame$"):
            train(VariantSpec(n_states=3, n_mixtures=1), obs_set)

    def test_named_symbol_utterance_that_is_not_a_sequence(self):
        obs_set = [FeatureMatrix(np.zeros((6, 2)), FeatureMeta(source="u0"))]
        with pytest.raises(ValueError, match=r"^utterance 'u0': discrete observations "
                                             r"must be a 1-D symbol sequence$"):
            train(VariantSpec(n_states=3, n_mixtures=4, emission="discrete"), obs_set)


class TestDiscreteSymbols:
    """Float symbol sequences are accepted only when every value is an
    integer; anything else is named by utterance and frame."""

    @pytest.mark.parametrize("bad,shown", [
        ([0.0, np.nan, 1.0, 2.0], "nan"),
        ([0.0, np.inf, 1.0, 2.0], "inf"),
        ([0.0, 1.5, 1.0, 2.0], "1.5"),
    ])
    def test_baum_welch1_rejects_non_integer_symbols(self, bad, shown):
        model = _uniform_discrete(1, "ltr", 3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=rf"^non-integer symbol {shown} at utterance 1, frame 1$"):
                baum_welch1(model, [[0, 1, 2, 3, 1], bad], TrainConfig(max_iterations=1))

    def test_integral_float_symbols_are_accepted(self):
        model = _uniform_discrete(1, "ltr", 3, 4)
        floats = baum_welch1(model, [[0, 1, 2, 3, 1], [0.0, 1.0, 2.0]], TrainConfig(max_iterations=3))
        ints = baum_welch1(model, [[0, 1, 2, 3, 1], [0, 1, 2]], TrainConfig(max_iterations=3))
        assert floats.log_likelihoods == ints.log_likelihoods


class TestPrepareOnce:
    @pytest.mark.parametrize("emission,n_mixtures", [("gmm", 2), ("discrete", 4)])
    def test_train_prepares_utterances_once(self, monkeypatch, emission, n_mixtures):
        calls = []
        prepare = training._prepare_obs

        def counting(*args, **kwargs):
            calls.append(args)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(training, "_prepare_obs", counting)
        rng = np.random.default_rng(395)
        obs_set = [make_obs(rng, emission, 12) for _ in range(3)]
        variant = VariantSpec(n_states=3, n_mixtures=n_mixtures, emission=emission)
        train(variant, obs_set, TrainConfig(max_iterations=2))
        assert len(calls) == 1


class TestLaneIndependence:
    """_estep accumulates, bit for bit and in utterance order, what the
    one-utterance forward_backward1/2 passes give."""

    @staticmethod
    def _one_by_one(model, obs_list, posteriors=None):
        fb = forward_backward1 if model.order == 1 else forward_backward2
        kind = type(model.emissions[0])
        counts = [np.zeros_like(a) for _, a, _ in _transitions(model)]
        first_sum = np.zeros(model.n_states)
        stats = []
        total = 0.0
        for x, _ in obs_list:
            lat = fb(model, x)
            logb, comp = kind._kernel(x, *model._emission_parameters)
            bsh = np.exp(logb - lat.emission_shifts[:, None])
            total += lat.log_likelihood
            if posteriors is None:
                gamma = _posteriors(model, x, counts)
            else:
                gamma = posteriors(model, lat.alpha, lat.beta, bsh, counts)
            first_sum += gamma[0]
            stats.append(kind._statistics(model._emission_parameters, x, gamma, logb, comp))
        return total, counts, first_sum, tuple(map(sum, zip(*stats)))

    @pytest.mark.parametrize("order,topology,emission", ALL_CONFIGS)
    def test_estep_matches_one_utterance_passes(self, order, topology, emission):
        rng = np.random.default_rng([401, order, len(topology), len(emission)])
        shortest = 1 if order == 1 else 3
        for lengths in ([shortest, 17, 4, 30, shortest], [9], [shortest, shortest], [23, 5, 12]):
            model = make_random_model(rng, order, topology, emission)
            kind = type(model.emissions[0])
            obs_list = training._prepare_obs([make_obs(rng, emission, n) for n in lengths], kind)
            total, counts, first_sum, stats = training._estep(model, obs_list)
            want_total, want_counts, want_first, want_stats = self._one_by_one(model, obs_list)
            assert total == want_total
            assert len(counts) == len(want_counts)
            for got, want in zip(counts, want_counts):
                assert np.array_equal(got, want)
            assert np.array_equal(first_sum, want_first)
            assert len(stats) == len(want_stats) == len(model._emission_parameters)
            for got, want in zip(stats, want_stats):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("order,seed,topology", [
        (1, 54, "ltr"), (2, 801, "ltr"), (1, 1234, "circular"), (2, 1057, "circular"),
    ], ids=["1-54", "2-801", "1-circular-1234", "2-circular-1057"])
    def test_rescaled_lane_matches_its_one_lane_pass(self, order, seed, topology):
        """A lane whose backward table is rescaled gets the bits its own
        pass gives, beside lanes that are not rescaled."""
        model, far = far_off_case(seed, order, topology)
        rng = np.random.default_rng(seed)
        obs_list = training._prepare_obs([make_obs(rng, "gmm", 9), far, make_obs(rng, "gmm", 6)], GmmEmission)
        got = training._estep(model, obs_list)
        want = self._one_by_one(model, obs_list)
        assert got[0] == want[0]
        for a, b in zip([*got[1], got[2], *got[3]], [*want[1], want[2], *want[3]]):
            assert np.array_equal(a, b)

    @staticmethod
    def _failing_model():
        """A discrete model under which symbol 0 is impossible in every
        state and symbol 3 has an infinite density in state 0."""
        model = make_random_model(np.random.default_rng(403), 1, "ltr", "discrete", n_states=3)
        probs = np.array([e.probs for e in model.emissions])
        probs[:, 0] = 0.0
        probs[0, 3] = np.inf
        return replace(model, emissions=tuple(DiscreteEmission(p) for p in probs))

    @pytest.mark.parametrize("obs_set,error,message", [
        ([[1, 2, 1, 2], [1, 2, 1, 0, 2, 1], [1, 3, 2]], ImpossibleObservationError,
         "observation impossible under the model at utterance 1, frame 3"),
        ([[1, 2, 1, 2], [1, 3, 2], [1, 2, 1, 0, 2, 1]], ValueError,
         "emission density is infinite (zero variance?)"),
        ([[1, 2], [2, 1, 2, 1, 1, 0], [1, 5, 2, 2]], ImpossibleObservationError,
         "observation impossible under the model at utterance 1, frame 5"),
        ([[1, 2], [1, 5, 2, 2], [2, 1, 0, 1]], ValueError,
         "utterance 1: symbol out of range [0, 4): min 1, max 5"),
    ], ids=["impossible-then-infinite", "infinite-then-impossible",
            "impossible-then-out-of-range", "out-of-range-then-impossible"])
    def test_first_failing_utterance_wins(self, obs_set, error, message):
        with pytest.raises(error) as caught:
            baum_welch1(self._failing_model(), obs_set, TrainConfig(max_iterations=2))
        assert str(caught.value) == message
        assert type(caught.value) is error

    def test_padding_frames_record_no_error(self):
        """A lane shorter than the longest ends in a state whose transition
        row is 0, so its padding frames carry no mass; alone it scores."""
        mask = custom_topology(np.array([[True, True], [False, True]]))
        emissions = (DiscreteEmission([0.0, 1.0]), DiscreteEmission([1.0, 0.0]))
        model = Hmm1Model(mask, [1.0, 0.0], [[0.5, 0.5], [0.0, 0.0]], emissions)
        obs_set = [[1, 0], [1, 1, 1, 1]]
        alone = [baum_welch1(model, [x], TrainConfig(max_iterations=1)) for x in obs_set]
        both = baum_welch1(model, obs_set, TrainConfig(max_iterations=1))
        assert both.log_likelihoods == [alone[0].log_likelihoods[0] + alone[1].log_likelihoods[0]]


def _per_state_statistics(model, utterances):
    """The emission statistics of (x, gamma, logb, comp) utterances summed
    by the per-state loops that the stacked _statistics replaced: the
    reference for their bits."""
    stacked = model._emission_parameters
    r = np.zeros(stacked[0].shape)
    s1 = np.zeros(stacked[-1].shape)
    s2 = np.zeros(stacked[-1].shape)
    for x, gamma, logb, comp in utterances:
        if comp is None:
            for i in range(gamma.shape[1]):
                r[i] += np.bincount(x, weights=gamma[:, i], minlength=r.shape[1])
            continue
        ratio = np.zeros_like(comp)
        alive = np.isfinite(logb)
        ratio[alive] = np.exp(comp[alive] - logb[alive][:, None])
        xx = x * x
        for i in range(gamma.shape[1]):
            resp = gamma[:, i][:, None] * ratio[:, i]
            r[i] += resp.sum(axis=0)
            s1[i] += resp.T @ x
            s2[i] += resp.T @ xx
    return (r,) if len(stacked) == 1 else (r, s1, s2)


def _per_state_update(model, stats, weight_floor, floor_d):
    """The per-state emission update that the stacked _updated replaced."""
    def floored(counts):
        p = np.maximum(counts / counts.sum(), weight_floor)
        return p / p.sum()

    out = []
    for i, e in enumerate(model.emissions):
        r = stats[0][i]
        if r.sum() <= 0.0:
            out.append(e)
            continue
        if isinstance(e, DiscreteEmission):
            out.append(DiscreteEmission(floored(r)))
            continue
        means = e.means.copy()
        variances = e.variances.copy()
        active = r > 1e-300
        means[active] = stats[1][i][active] / r[active, None]
        variances[active] = stats[2][i][active] / r[active, None] - means[active] ** 2
        variances = np.maximum(variances, floor_d[None, :])
        out.append(GmmEmission(floored(r), means, variances))
    return out


class TestStackedEmissionStatistics:
    """Each emission kind's _statistics and _updated, over all states at
    once, equal bit for bit the per-state loops they replaced, with a
    frame of no density, a state without mass and a component or symbol
    without mass among the inputs."""

    @staticmethod
    def _posteriors(rng, t_count, n_states, empty_state):
        gamma = rng.dirichlet(np.full(n_states, 0.5), size=t_count)
        gamma[:, empty_state] = 0.0
        return gamma / gamma.sum(axis=1, keepdims=True)

    @staticmethod
    def _check(model, utterances, floor_d):
        kind = type(model.emissions[0])
        stacked = model._emission_parameters
        stats = tuple(map(sum, zip(*(kind._statistics(stacked, *u) for u in utterances))))
        want = _per_state_statistics(model, utterances)
        assert len(stats) == len(want) == len(stacked)
        for got, expected in zip(stats, want):
            assert np.array_equal(got, expected)
        updated = tuple(map(kind, *kind._updated(stacked, stats, 1e-3, floor_d)))
        want_updated = _per_state_update(model, want, 1e-3, floor_d)
        for got, expected in zip(updated, want_updated):
            for name, value in vars(expected).items():
                assert np.array_equal(getattr(got, name), value)
        return stats, updated

    @pytest.mark.parametrize("n_mixtures", [1, 2, 5])
    @pytest.mark.parametrize("n_states", [3, 5, 24])
    def test_gmm(self, n_mixtures, n_states):
        rng = np.random.default_rng([701, n_mixtures, n_states])
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=n_states, n_mixtures=n_mixtures)
        empty_state, dead_state = rng.choice(n_states, size=2, replace=False)
        dead_component = int(rng.integers(n_mixtures))
        utterances = []
        for t_count in (1, 7, 40):
            x = make_obs(rng, "gmm", t_count)
            comp = GmmEmission._kernel(x, *model._emission_parameters)[1]
            comp[:, dead_state, dead_component] = -np.inf
            comp[t_count // 2] = -np.inf   # a frame no state can emit
            gamma = self._posteriors(rng, t_count, n_states, empty_state)
            utterances.append((x, gamma, _logsumexp(comp), comp))
        floor_d = rng.uniform(0.05, 1.0, size=2)
        stats, updated = self._check(model, utterances, floor_d)
        r = stats[0]
        assert not r[empty_state].any()
        assert r[dead_state, dead_component] == 0.0
        assert r[dead_state].any() == (n_mixtures > 1)   # the dead component's state keeps mass
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(updated[empty_state], name),
                                  getattr(model.emissions[empty_state], name))

    @pytest.mark.parametrize("n_symbols", [4, 16])
    def test_discrete_with_an_unused_symbol(self, n_symbols):
        rng = np.random.default_rng([702, n_symbols])
        n_states = 5
        model = make_random_model(rng, 1, "circular", "discrete", n_states=n_states)
        probs = rng.dirichlet(np.ones(n_symbols), size=n_states)
        model = replace(model, emissions=tuple(DiscreteEmission(p) for p in probs))
        used = np.delete(np.arange(n_symbols), 2)
        utterances = []
        for t_count in (1, 9, 60):
            x = rng.choice(used, size=t_count)
            gamma = self._posteriors(rng, t_count, n_states, 3)
            utterances.append((x, gamma, DiscreteEmission._kernel(x, probs)[0], None))
        stats, updated = self._check(model, utterances, None)
        assert not stats[0][:, 2].any()
        assert not stats[0][3].any()
        assert np.array_equal(updated[3].probs, probs[3])


def _pass(model, x):
    """The one-utterance inference._RowPass of ``model`` on ``x``, after
    forward_backward: the E-step's pass over one utterance."""
    return inference._one_utterance(_ModelStack((model,)), x).forward_backward()


def _chunk(model):
    """Frames per chunk of ``model``'s transition posterior."""
    return inference._chunk_frames(_ModelStack((model,)).entries.move_sums)


def _posteriors(model, x, counts, chunk=None):
    """_RowPass.posteriors of the one-utterance pass of ``model`` on ``x``
    (taking ``chunk`` frames per chunk when given), with a normalizer table
    of its own."""
    rows, frames = _pass(model, x), chunk or _chunk(model)
    with mock.patch.object(inference, "_chunk_frames", lambda sums: frames):
        return rows.posteriors(0, counts, np.ones((2, len(x))))


def _whole_posteriors1(model, alpha, beta, bsh, counts):
    """The first-order posteriors with the transition posterior xi built
    as one dense (T-1, N, N) tensor: the reference for the build at the
    allowed entries."""
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    if len(gamma) > 1:
        w = bsh[1:] * beta[1:]
        xi = alpha[:-1][:, :, None] * model.trans[None, :, :] * w[:, None, :]
        xi /= xi.sum(axis=(1, 2), keepdims=True)
        counts[0] += xi.sum(axis=0)
    return gamma


def _whole_posteriors2(model, alpha, beta, bsh, counts):
    """The second-order posteriors with the triple posterior eta built as
    one dense (T-2, N, N, N) tensor: the reference for the build at the
    allowed entries."""
    t_count = len(bsh)
    pair = alpha[1:] * beta[1:]
    pair /= pair.sum(axis=(1, 2), keepdims=True)
    gamma = np.empty((t_count, model.n_states))
    gamma[0] = pair[0].sum(axis=1)
    gamma[1:] = pair.sum(axis=1)
    counts[0] += pair[0]
    if t_count > 2:
        eta = (
            alpha[1:t_count - 1][:, :, :, None]
            * model.trans2[None]
            * bsh[2:][:, None, None, :]
            * beta[2:][:, None, :, :]
        )
        eta /= eta.sum(axis=(1, 2, 3), keepdims=True)
        counts[1] += eta.sum(axis=0)
    return gamma


_WHOLE_POSTERIORS = {1: _whole_posteriors1, 2: _whole_posteriors2}


class TestRowSums:
    """_RowSums gives each row the bits np.sum gives the whole row: zeros
    with the values at their positions."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.one_of(st.sampled_from([7, 8, 128, 129, 2304, 13824]), st.integers(1, 20_000)),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_sums_equal_the_dense_row_sums(self, n, seed, data):
        """Random positions, scattered or in runs, with values of
        either sign and magnitudes within 1, 20 or 600 decades of 1e-300
        to 1e300 (sums that overflow to inf and inf - inf included), a few
        of them 0.0 or -0.0, and at times a row of -0.0 only."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(min(n, 3000) + 1))
        if data.draw(st.booleans()):
            flat = np.sort(rng.choice(n, size=k, replace=False))
        else:   # runs of up to 20 positions, one of them at the row's end
            starts = np.append(rng.choice(n, size=k // 20, replace=False), n - 20)
            flat = np.unique(np.clip(starts[:, None] + np.arange(20), 0, n - 1))
        f = int(rng.integers(1, 13))
        spread = rng.choice([1.0, 20.0, 600.0])   # in decades; narrow ones round at every addition
        low = rng.uniform(-300.0, 300.0 - spread)
        values = rng.choice([-1.0, 1.0], size=(f, len(flat))) * 10.0 ** rng.uniform(low, low + spread, (f, len(flat)))
        values[rng.random(values.shape) < 0.03] = 0.0
        values[rng.random(values.shape) < 0.03] = -0.0
        if data.draw(st.booleans()):
            values[0] = -0.0   # np.sum makes it +0.0
        rows = np.zeros((f, n))
        rows[:, flat] = values
        got = inference._RowSums(n, flat)(values)
        assert got.tobytes() == rows.sum(axis=1).tobytes()


class TestTransitionPosterior:
    """_RowPass.posteriors builds the posterior of the last transition
    array (xi for order 1, eta for order 2) at its allowed entries only,
    over chunks of frames, and sums the frames in frame order; every total
    is bitwise that of the whole tensor."""

    # state counts at which the last transition array has more than 128
    # entries, so that _RowSums plans each frame's normalizer, and
    # utterances of up to 260 frames span several chunks
    N_STATES = {1: 48, 2: 24}

    @staticmethod
    def _lengths(model):
        """Utterances with no transition posterior (order 1), one frame of
        it, one full chunk, one frame past it, two full chunks and one past
        them, then lengths up to 260 frames."""
        order, chunk = model.order, _chunk(model)
        return sorted({2 * order - 1, order + 1, order + 2, chunk + order, chunk + order + 1,
                       2 * chunk + order, 2 * chunk + order + 1, 77, 129, 152, 200, 251, 260})

    def _model(self, order, topology, seed):
        rng = np.random.default_rng([seed, order, len(topology)])
        n_states = self.N_STATES[order]
        return make_random_model(rng, order, topology, "gmm", n_states=n_states, n_mixtures=1), rng

    @staticmethod
    def _lattice(model, x):
        fb = forward_backward1 if model.order == 1 else forward_backward2
        lat = fb(model, x)
        logb = type(model.emissions[0])._kernel(x, *model._emission_parameters)[0]
        return lat, np.exp(logb - lat.emission_shifts[:, None])

    def _compare(self, model, x, what, chunk=None):
        lat, bsh = self._lattice(model, x)
        got = [np.zeros_like(a) for _, a, _ in _transitions(model)]
        want = [np.zeros_like(a) for _, a, _ in _transitions(model)]
        gamma = _posteriors(model, x, got, chunk)
        want_gamma = _WHOLE_POSTERIORS[model.order](model, lat.alpha, lat.beta, bsh, want)
        assert np.array_equal(gamma, want_gamma), what
        for g, w in zip(got, want):
            assert np.array_equal(g, w), what
        return got

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("topology", ["ltr", "circular"])
    def test_posteriors_equal_the_whole_tensor(self, order, topology):
        model, rng = self._model(order, topology, 501)
        for t_count in self._lengths(model):
            got = self._compare(model, make_obs(rng, "gmm", t_count), t_count)
            assert got[-1].any() == (t_count > order), t_count

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(order=st.sampled_from([1, 2]), pattern=st.sampled_from(["ltr", "circular", "custom", "dense"]),
           chunk=st.integers(1, 100), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_zero_pattern_length_and_chunk(self, order, pattern, chunk, seed, data):
        """Left-to-right, ring, random custom and fully dense zero patterns
        of trans (3-14 states) or trans2 (3-7 states), with up to 128
        entries or more, at lengths up to 260 frames, in chunks of 1-100
        frames."""
        n_states = data.draw(st.integers(3, 14 if order == 1 else 7))
        rng = np.random.default_rng(seed)
        model = make_random_model(rng, order, "custom" if pattern == "dense" else pattern, "gmm",
                                  n_states=n_states, n_mixtures=1)
        if pattern == "dense":
            last = rng.uniform(0.05, 1.0, size=(n_states,) * (order + 1))
            last /= last.sum(axis=-1, keepdims=True)
            model = replace(model, mask=custom_topology(np.ones((n_states, n_states))),
                            **{_transitions(model)[-1][0]: last})
        t_count = data.draw(st.integers(2 * order - 1, 260))
        self._compare(model, make_obs(rng, "gmm", t_count), t_count, chunk)

    @pytest.mark.parametrize("order", [1, 2])
    def test_rows_of_a_stack_pass_equal_their_own(self, order):
        """Each row of a pass of three models (left-to-right, ring and
        custom, so over the union of their layouts) on two utterances has
        the posteriors and counts of its model's own one-utterance pass."""
        rng = np.random.default_rng([503, order])
        models = [make_random_model(rng, order, topology, "gmm", n_states=5, n_mixtures=1)
                  for topology in ("ltr", "circular", "custom")]
        xs = [make_obs(rng, "gmm", n) for n in (9, 14)]
        rows = inference._RowPass(_ModelStack(models), xs, [None, None]).forward_backward()
        for k in range(6):
            model, x = models[k % 3], xs[k // 3]
            got = [np.zeros_like(a) for _, a, _ in _transitions(model)]
            want = [np.zeros_like(a) for _, a, _ in _transitions(model)]
            gamma = rows.posteriors(k, got, np.ones((2, 14)))
            assert np.array_equal(gamma, _posteriors(model, x, want)), k
            for g, w in zip(got, want):
                assert np.array_equal(g, w), k

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("topology", ["ltr", "circular"])
    def test_estep_equals_one_utterance_passes(self, order, topology):
        model, rng = self._model(order, topology, 502)
        chunk = _chunk(model)
        lengths = [77, order + 1, 251, 260, chunk + order, 152, 2 * chunk + order + 1, 200, 129]
        kind = type(model.emissions[0])
        obs_list = training._prepare_obs([make_obs(rng, "gmm", n) for n in lengths], kind)
        total, counts, first_sum, stats = training._estep(model, obs_list)
        want_total, want_counts, want_first, want_stats = TestLaneIndependence._one_by_one(
            model, obs_list, _WHOLE_POSTERIORS[order]
        )
        assert total == want_total
        for got, want in zip(counts, want_counts):
            assert np.array_equal(got, want)
        assert np.array_equal(first_sum, want_first)
        assert len(stats) == len(want_stats) == 3
        for got, want in zip(stats, want_stats):
            assert np.array_equal(got, want)


class TestPatternLayout:
    """One layout per zero pattern (inference._Entries) serves both orders'
    passes and the E-step: order 1's entries are the N states, the E-step's
    table of allowed entries is the one built from the last transition
    array itself, and the layout is built once per pattern, shared
    read-only by every stack of that pattern."""

    STATES = (2, 3, 4, 5, 6, 7, 24)

    @staticmethod
    def _models(order, topology, emission, seed):
        """Models of each of STATES (a ring needs 3) of the topology and
        with a random custom mask."""
        rng = np.random.default_rng([seed, order, len(topology), len(emission)])
        for n_states in TestPatternLayout.STATES:
            for kind in (topology, "custom"):
                if kind != "circular" or n_states >= 3:
                    yield make_random_model(rng, order, kind, emission, n_states=n_states)

    @pytest.mark.parametrize("topology", ["ltr", "circular", "custom"])
    def test_order1_entries_are_the_states(self, topology):
        rng = np.random.default_rng([710, len(topology)])
        for n_states in self.STATES[1:]:
            entries = _ModelStack((make_random_model(rng, 1, topology, "gmm", n_states=n_states),)).entries
            states = np.arange(n_states)
            assert np.array_equal(entries.flat, states)
            assert np.array_equal(entries.last, states)
            assert np.array_equal(entries.place, states)
            assert np.array_equal(entries.ending, states[None])
            assert entries.back is None

    @pytest.mark.parametrize("order,topology,emission", ALL_CONFIGS)
    def test_allowed_entries_equal_the_last_arrays_own(self, order, topology, emission):
        """The reference is built from the last transition array: its
        nonzero entries, the slice entry each leaves (flat // N) and enters
        (flat % N^order), placed by the layout, and its last state."""
        rng = np.random.default_rng([716, order, len(topology), len(emission)])
        for model in self._models(order, topology, emission, 711):
            rows = inference._one_utterance(_ModelStack((model,)), make_obs(rng, emission, 4))
            entries = rows.stack.entries
            moves, source, target, last_states = entries.moves
            n, last = model.n_states, _transitions(model)[-1][1]
            flat = np.flatnonzero(last)
            place = entries.place
            assert np.array_equal(moves, flat)
            assert np.array_equal(source, place[flat // n])
            assert np.array_equal(target, place[flat % n**order])
            assert np.array_equal(last_states, flat % n)
            assert np.array_equal(rows.move_values[0], last.ravel()[flat])
            assert np.array_equal(entries.flat[source], flat // n)
            assert np.array_equal(entries.flat[target], flat % n**order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_built_once_per_zero_pattern(self, order):
        """Every E-step of one model reads the one layout of its zero
        pattern, which the M-step keeps."""
        rng = np.random.default_rng([712, order])
        model = make_random_model(rng, order, "custom", "gmm", n_states=6)
        xs = [make_obs(rng, "gmm", n) for n in (20, 35, 9)]
        inference._slice_entries.cache_clear()
        report = _welch(model, xs, TrainConfig(max_iterations=3, rel_tol=1e-15))
        assert report.iterations_run == 3
        assert inference._slice_entries.cache_info().misses == 1

    @pytest.mark.parametrize("order", [1, 2])
    def test_a_floored_zero_gets_its_own_layout(self, order):
        """A starting chain with a zero at an allowed entry: the first
        M-step floors it to nonzero, so the later E-steps read a second
        layout, which holds that entry, not the first one's tables."""
        rng = np.random.default_rng([713, order])
        model = make_random_model(rng, order, "ltr", "gmm", n_states=5)
        name, last, _ = _transitions(model)[-1]
        last = last.copy()
        zero = np.flatnonzero(last * ((last > 0).sum(axis=-1, keepdims=True) > 1))[0]   # in a row of two or more
        last.flat[zero] = 0.0
        row = np.unravel_index(zero, last.shape)[:-1]
        last[row] /= last[row].sum()
        model = replace(model, **{name: last})
        xs = [make_obs(rng, "gmm", n) for n in (20, 35, 9)]
        inference._slice_entries.cache_clear()
        seen = []   # per E-step, its model's last transition array and the layout its posteriors read

        def spy(rows, k, counts, norms):
            if k == 0:
                seen.append((getattr(rows.stack, name)[0], rows.stack.entries))
            return posteriors(rows, k, counts, norms)

        posteriors = inference._RowPass.posteriors
        with mock.patch.object(inference._RowPass, "posteriors", spy):
            _welch(model, xs, TrainConfig(max_iterations=3, rel_tol=1e-15))
        assert len(seen) == 3 and inference._slice_entries.cache_info().misses == 2
        assert zero not in seen[0][1].moves[0]
        assert seen[1][1] is seen[2][1] and zero in seen[1][1].moves[0]
        for last, entries in seen:
            assert np.array_equal(entries.moves[0], np.flatnonzero(last))

    @pytest.mark.parametrize("order", [1, 2])
    def test_layout_is_read_only(self, order):
        """Every array of the layout, the allowed moves and the operand
        arrays of its _RowSums plans included. At 12 states (order 1) the
        rows of trans, and at 24 (order 2) those of trans2 and the pair
        slices, have more than 128 values, so their sums are planned."""
        rng = np.random.default_rng([714, order])
        n_states = {1: 12, 2: 24}[order]
        stacks = [_ModelStack((make_random_model(rng, order, "ltr", "gmm", n_states=n_states),)) for _ in range(2)]
        entries = stacks[0].entries
        assert stacks[1].entries is entries
        plans = [sums for sums in (entries.move_sums, entries.slice_sums) if sums.levels is not None]
        assert len(plans) == order
        operands = [array for plan in plans for _, *pair in plan.levels for array in pair]
        arrays = [*entries[:4], *itertools.chain(*entries.steps), *(entries.back or ()), *entries.moves, *operands]
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0
