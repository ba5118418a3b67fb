import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

import oracles
from conftest import ALL_CONFIGS, N_SYMBOLS, make_obs, make_random_model

from hmmsid.inference import log_emission_matrix
from hmmsid.models import (
    DiscreteEmission,
    GmmEmission,
    Hmm1Model,
    Hmm2Model,
    circular_topology,
    custom_topology,
    load_model,
    ltr_topology,
    model_from_dict,
    model_to_dict,
    save_model,
    _logsumexp,
    _pairwise_sum,
    symmetrize_ring_transitions,
    validate,
)


class TestEmissionDensities:
    def test_gmm_log_density_matches_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            e = GmmEmission(
                weights=np.array([0.3, 0.7]),
                means=rng.normal(size=(2, 3)),
                variances=rng.uniform(0.2, 2.0, size=(2, 3)),
            )
            x = rng.normal(size=(5, 3))
            got = e.log_density(x)
            want = [oracles.emission_log_density(e, xi) for xi in x]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gmm_zero_weight_component_ignored(self):
        e = GmmEmission(
            weights=np.array([1.0, 0.0]),
            means=np.array([[0.0], [100.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        only = GmmEmission(
            weights=np.array([1.0]),
            means=np.array([[0.0]]),
            variances=np.array([[1.0]]),
        )
        x = np.array([[0.3], [-1.2]])
        np.testing.assert_allclose(e.log_density(x), only.log_density(x), rtol=1e-14)

    def test_discrete_log_density_and_zero_prob(self):
        e = DiscreteEmission(np.array([0.5, 0.5, 0.0]))
        vals = e.log_density(np.array([0, 2, 1]))
        assert vals[0] == pytest.approx(np.log(0.5))
        assert np.isneginf(vals[1])
        assert vals[2] == pytest.approx(np.log(0.5))

    def test_discrete_rejects_out_of_range_symbol(self):
        e = DiscreteEmission(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            e.log_density(np.array([0, 2]))
        with pytest.raises(ValueError):
            e.log_density(np.array([-1]))

    def test_discrete_rejects_float_symbols(self):
        e = DiscreteEmission(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            e.log_density(np.array([0.0, 1.0]))


# Values that make ties, empty rows, overflow and the non-finite fallback.
_SPECIAL = st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 1.0, -1.0, -745.2, 709.8, 1e308])
# Summands whose sums show the order of addition: signed zeros, cancellation,
# overflow to inf and subnormals.
_SPECIAL_SUMMANDS = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 1e16, -1e16, 1e308, -1e308, np.inf, 5e-324])


class TestEmissionKernel:
    """The stacked kernel must give the bits of the per-state formula with
    scipy's logsumexp that it replaced."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
        elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True), _SPECIAL),
    ))
    def test_logsumexp_matches_scipy(self, a):
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=-1)
        got = _logsumexp(a)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda n: hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.just(n)),
        elements=st.one_of(st.floats(allow_nan=False, allow_subnormal=True), _SPECIAL_SUMMANDS),
    )))
    @example(np.full((2, 7), -0.0))
    @example(np.arange(8.0 * 3).reshape(3, 8))
    @example(np.geomspace(1e-3, 1e3, 2 * 23).reshape(2, 23))
    @example(np.linspace(-1.0, 1.0, 128)[None])
    @example(np.geomspace(1e-5, 1e5, 129)[None])
    @example(np.sin(np.arange(300.0))[None])
    def test_pairwise_sum_matches_add_reduce(self, a):
        """Summing the n columns of a C-contiguous (rows, n) array as n
        slabs gives np.add.reduce's bits along its last axis: below 8,
        from 8 to 128 (eight running sums and a leftover) and above 128
        (split halves). Sums that come out NaN (inf - inf) are compared as
        NaN, since which NaN payload survives depends on operand order."""
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.add.reduce(a, axis=-1)
            got = _pairwise_sum(np.ascontiguousarray(a.T))
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))

    def test_logsumexp_rows_of_minus_inf_ties_and_inf(self):
        a = np.array([
            [-np.inf, -np.inf, -np.inf],
            [2.0, 2.0, 2.0],
            [1.0, 3.0, 3.0],
            [np.inf, 0.0, np.inf],
            [np.nan, 0.0, 1.0],
            [-np.inf, np.inf, np.nan],
        ])
        with np.errstate(all="ignore"):
            want = logsumexp(a, axis=-1)
        assert np.array_equal(_logsumexp(a), want, equal_nan=True)

    @pytest.mark.parametrize("emission, n_mixtures, n_dims", [
        *(("gmm", m, d) for m in (1, 2, 5, 9) for d in (4, 12, 17)),
        ("discrete", N_SYMBOLS, 4),
    ])
    @pytest.mark.parametrize("order", [1, 2])
    def test_log_emission_matrix_matches_per_state_formula(self, order, emission, n_mixtures, n_dims):
        """The per-state reference is scipy's logsumexp over components for
        GMM and each state's own table lookup for discrete. State 0 has a
        zeroed last mixture weight or symbol probability; discrete symbols
        are also given as integral floats. The reference sums along
        contiguous axes, so its 4, 12 and 17 dimensions and 1, 2, 5 and 9
        components take every branch of numpy's pairwise summation below
        128 values that the kernel's slab sums must follow."""
        rng = np.random.default_rng([40 + 10 * order + n_mixtures, n_dims])
        for _ in range(10):
            model = make_random_model(rng, order, "circular", emission, n_dims=n_dims,
                                      n_mixtures=n_mixtures)
            if n_mixtures > 1:
                e = model.emissions[0]
                if emission == "gmm":
                    w = e.weights.copy()
                    w[-1] = 0.0
                    zeroed = GmmEmission(w / w.sum(), e.means, e.variances)
                else:
                    p = e.probs.copy()
                    p[-1] = 0.0
                    zeroed = DiscreteEmission(p / p.sum())
                model = replace(model, emissions=(zeroed,) + model.emissions[1:])
            if emission == "gmm":
                x = rng.normal(0.0, 3.0, size=(int(rng.integers(1, 30)), n_dims))
                want = np.stack([_per_state_log_density(e, x) for e in model.emissions], axis=1)
                inputs = [x]
            else:
                x = make_obs(rng, emission, int(rng.integers(1, 30)))
                x[0] = n_mixtures - 1
                with np.errstate(divide="ignore"):
                    want = np.stack([np.log(e.probs[x]) for e in model.emissions], axis=1)
                assert np.isneginf(want[0, 0])
                inputs = [x, x.astype(np.float64)]
            for obs in inputs:
                assert np.array_equal(log_emission_matrix(model, obs), want)
            for i, e in enumerate(model.emissions):
                assert np.array_equal(e.log_density(x), want[:, i])

    def test_dimension_mismatch_is_reported(self):
        model = make_random_model(np.random.default_rng(45), 1, "ltr", "gmm", n_dims=3)
        with pytest.raises(ValueError, match=r"^frames have dimension 2, emission has 3$"):
            log_emission_matrix(model, np.zeros((5, 2)))


def _per_state_log_density(e, x):
    """One state's log-density as computed before the stacked kernel: the
    (T, M) component matrix, then scipy's logsumexp over components."""
    diff = x[:, None, :] - e.means[None, :, :]
    quad = np.sum(diff * diff / e.variances[None, :, :], axis=2)
    const = -0.5 * np.sum(np.log(2.0 * np.pi * e.variances), axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(e.weights)
    return logsumexp(logw[None, :] + const[None, :] - 0.5 * quad, axis=1)


class TestValidate:
    def test_random_models_validate_clean(self):
        rng = np.random.default_rng(11)
        for order, topology, emission in ALL_CONFIGS:
            model = make_random_model(rng, order, topology, emission)
            assert validate(model) == []

    def test_detects_unnormalized_row(self):
        rng = np.random.default_rng(12)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        bad = model.trans.copy()
        bad[0] *= 2.0
        model2 = Hmm1Model(model.mask, model.initial, bad, model.emissions)
        assert any("trans[0" in p or "row 0" in p for p in validate(model2))

    def test_detects_mask_violation(self):
        rng = np.random.default_rng(13)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        bad = model.trans.copy()
        bad[2, 0] = 0.5
        bad[2] /= bad[2].sum()
        model2 = Hmm1Model(model.mask, model.initial, bad, model.emissions)
        assert any("forbid" in p for p in validate(model2))

    def test_detects_bad_initial(self):
        rng = np.random.default_rng(14)
        model = make_random_model(rng, 1, "circular", "gmm")
        model2 = Hmm1Model(model.mask, model.initial * 0.5, model.trans, model.emissions)
        assert any("initial" in p for p in validate(model2))

    def test_detects_forbidden_triple(self):
        rng = np.random.default_rng(15)
        model = make_random_model(rng, 2, "ltr", "gmm", n_states=3)
        bad = model.trans2.copy()
        bad[2, 2, 0] = 0.25
        from hmmsid.models import Hmm2Model

        model2 = Hmm2Model(model.mask, model.initial, model.trans1, bad, model.emissions)
        assert any("forbids" in p for p in validate(model2))

    def test_order2_faults_reported_in_order(self):
        model = make_random_model(np.random.default_rng(27), 2, "ltr", "gmm", n_states=3)
        t1 = model.trans1.copy()
        t1[0] *= 2.0
        t1[1, 0] = -0.5
        t2 = model.trans2.copy()
        t2[0, 1] *= 0.5
        t2[2, 2, 0] = 0.25
        from hmmsid.models import Hmm2Model

        broken = Hmm2Model(model.mask, model.initial, t1, t2, model.emissions)
        assert validate(broken) == [
            "trans1[0,:] sums to 2 (off by 1)",
            "trans1[1,:] sums to 0.5 (off by -0.5)",
            "trans1[1,0] = -0.5 is negative",
            "trans1[1,0] = -0.5 but the topology forbids (1,0)",
            "trans2[0,1,:] sums to 0.5 (off by -0.5)",
            "trans2[2,2,:] sums to 1.25 (off by 0.25)",
            "trans2[2,2,0] = 0.25 but the topology forbids (2,2,0)",
        ]

    def test_detects_non_finite_parameters(self):
        model = make_random_model(np.random.default_rng(18), 2, "circular", "gmm")
        t2 = model.trans2.copy()
        t2[0, 1, 2] = np.nan
        e = model.emissions[1]
        means = e.means.copy()
        means[1, 0] = np.inf
        emissions = (model.emissions[0], GmmEmission(e.weights, means, e.variances), model.emissions[2])
        from hmmsid.models import Hmm2Model

        broken = Hmm2Model(model.mask, model.initial * np.nan, model.trans1, t2, emissions)
        assert validate(broken)[:3] == [
            "initial[0] = nan is not finite",
            "trans2[0,1,2] = nan is not finite",
            "state 1 means[1,0] = inf is not finite",
        ]

    def test_detects_negative_variance(self):
        rng = np.random.default_rng(16)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=2)
        e = model.emissions[0]
        bad_var = e.variances.copy()
        bad_var[0, 0] = -1.0
        bad = GmmEmission(e.weights, e.means, bad_var)
        model2 = Hmm1Model(model.mask, model.initial, model.trans, (bad,) + model.emissions[1:])
        assert any("variance" in p for p in validate(model2))


class TestShapeChecks:
    def test_wrong_trans_shape_rejected(self):
        rng = np.random.default_rng(17)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        with pytest.raises(ValueError):
            Hmm1Model(model.mask, model.initial, model.trans[:2], model.emissions)

    def test_wrong_emission_count_rejected(self):
        rng = np.random.default_rng(18)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=3)
        with pytest.raises(ValueError):
            Hmm1Model(model.mask, model.initial, model.trans, model.emissions[:2])

    def test_mixed_emission_kinds_rejected(self):
        rng = np.random.default_rng(19)
        model = make_random_model(rng, 1, "ltr", "gmm", n_states=2)
        mixed = (model.emissions[0], DiscreteEmission(np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            Hmm1Model(model.mask, model.initial, model.trans, mixed)


# A one-state left-to-right topology entry of a model file.
_LTR1 = '{"kind": "ltr", "n_states": 1, "skip_width": 1}'


# Every ALL_CONFIGS case, and a custom topology, whose file carries allowed1.
ROUND_TRIP_CONFIGS = [*ALL_CONFIGS, (2, "custom", "gmm")]


class TestSerialization:
    @pytest.mark.parametrize("order,topology,emission", ROUND_TRIP_CONFIGS)
    def test_round_trip_is_exact(self, tmp_path, order, topology, emission):
        rng = np.random.default_rng(300 + ROUND_TRIP_CONFIGS.index((order, topology, emission)))
        model = make_random_model(rng, order, topology, emission)
        path = tmp_path / "model.json"
        save_model(model, path, training={"note": "x", "seed": 5})
        back, header = load_model(path)
        assert header["training"] == {"note": "x", "seed": 5}
        assert type(back) is type(model)
        assert back.mask.kind == model.mask.kind
        np.testing.assert_array_equal(back.mask.allowed1, model.mask.allowed1)
        np.testing.assert_array_equal(back.initial, model.initial)
        if order == 1:
            np.testing.assert_array_equal(back.trans, model.trans)
        else:
            np.testing.assert_array_equal(back.trans1, model.trans1)
            np.testing.assert_array_equal(back.trans2, model.trans2)
        for a, b in zip(back.emissions, model.emissions):
            if emission == "discrete":
                np.testing.assert_array_equal(a.probs, b.probs)
            else:
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.means, b.means)
                np.testing.assert_array_equal(a.variances, b.variances)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(order=st.sampled_from([1, 2]), topology=st.sampled_from(["ltr", "circular", "custom"]),
           emission=st.sampled_from(["gmm", "discrete"]), data=st.data())
    def test_any_finite_model_round_trips_bitwise(self, tmp_path_factory, order, topology, emission, data):
        """Every parameter any finite double (subnormals, -0.0 and the
        largest included), over all 8 configurations and custom masks,
        with a random JSON training header."""
        n = data.draw(st.integers(3 if topology == "circular" else 1, 4))
        if topology == "custom":
            allowed = data.draw(hnp.arrays(bool, (n, n)))
            allowed[np.arange(n), data.draw(hnp.arrays(int, n, elements=st.integers(0, n - 1)))] = True
            mask = custom_topology(allowed)
        else:
            mask = circular_topology(n) if topology == "circular" else ltr_topology(n, data.draw(st.integers(1, 3)))
        finite = st.floats(allow_nan=False, allow_infinity=False)

        def array(*shape):
            return data.draw(hnp.arrays(np.float64, shape, elements=finite))

        if emission == "gmm":
            m, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
            emissions = [GmmEmission(array(m), array(m, d), array(m, d)) for _ in range(n)]
        else:
            symbols = data.draw(st.integers(1, 5))
            emissions = [DiscreteEmission(array(symbols)) for _ in range(n)]
        if order == 1:
            model = Hmm1Model(mask, array(n), array(n, n), emissions)
        else:
            model = Hmm2Model(mask, array(n), array(n, n), array(n, n, n), emissions)
        training = data.draw(st.dictionaries(st.text(), st.one_of(
            st.none(), st.booleans(), st.integers(), finite, st.text(), st.lists(finite))))
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path, training=training)
        back, header = load_model(path)
        assert repr(sorted(header["training"].items())) == repr(sorted(training.items()))   # -0.0 kept
        assert type(back) is type(model)
        assert (back.mask.kind, back.mask.skip_width) == (model.mask.kind, model.mask.skip_width)
        assert np.array_equal(back.mask.allowed1, model.mask.allowed1)
        names = ["initial", *(["trans"] if order == 1 else ["trans1", "trans2"])]

        def arrays(m):
            return [getattr(m, name) for name in names] + [getattr(e, f.name) for e in m.emissions for f in fields(e)]

        assert [(a.shape, a.tobytes()) for a in arrays(back)] == [(a.shape, a.tobytes()) for a in arrays(model)]

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(20)
        model = make_random_model(rng, 2, "circular", "gmm")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_missing_key_names_file_and_key(self, tmp_path):
        rng = np.random.default_rng(26)
        d = model_to_dict(make_random_model(rng, 1, "ltr", "gmm"))
        del d["trans"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=r"broken\.json.*'trans'"):
            load_model(path)

    @pytest.mark.parametrize("text, why", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "does not hold a JSON object"),
        ('{"format": "hmmsid-model", "format_version": 1, "topology": [1], "emission_type": "gmm"}',
         "topology is not a JSON object"),
        ('{"format": "hmmsid-model", "format_version": 1, "topology": ' + _LTR1
         + ', "emission_type": "gmm", "emissions": [[0.5, 0.5]]}',
         r"emissions\[0\] is not a JSON object"),
        ('{"format": "hmmsid-model", "format_version": 1, "training": [1, 2]}',
         "training is not a JSON object"),
        ('{"format": "hmmsid-model", "format_version": 1, "topology": ' + _LTR1
         + ', "emission_type": "gmmx", "emissions": [{"weights": [1.0]}]}',
         "unknown emission_type 'gmmx'"),
        ('{"format": "hmmsid-model", "format_version": 1, "topology": ' + _LTR1
         + ', "emission_type": "discrete", "emissions": [{"probs": [1.0]}],'
         ' "order": 1, "initial": {"a": 1}, "trans": [[1.0]]}',
         "a value has the wrong JSON type"),
    ])
    def test_malformed_file_names_file(self, tmp_path, text, why):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.json: {why}"):
            load_model(path)

    @pytest.mark.parametrize("key", ["topology", "trans2", "variances"])
    def test_model_from_dict_names_missing_key(self, key):
        d = model_to_dict(make_random_model(np.random.default_rng(28), 2, "ltr", "gmm"))
        if key == "variances":
            del d["emissions"][1][key]
        else:
            del d[key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            model_from_dict(d)

    def test_dict_round_trip_without_files(self):
        rng = np.random.default_rng(21)
        model = make_random_model(rng, 2, "ltr", "discrete")
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(back.trans2, model.trans2)


class TestSymmetrize:
    def test_projects_onto_symmetry_and_stays_stochastic(self):
        rng = np.random.default_rng(22)
        model = make_random_model(rng, 1, "circular", "gmm", n_states=4)
        sym = symmetrize_ring_transitions(model)
        assert validate(sym) == []
        np.testing.assert_allclose(sym.trans.sum(axis=1), 1.0, atol=1e-12)
        # each allowed pair's mass comes from the symmetric average before
        # row renormalization, so detailed symmetry shows as ratio equality
        avg = (model.trans + model.trans.T) / 2.0
        expected = np.where(model.mask.allowed1, avg, 0.0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(sym.trans, expected, rtol=1e-12)

    def test_uniform_ring_is_a_fixed_point(self):
        model = make_random_model(np.random.default_rng(23), 1, "circular", "gmm", n_states=4)
        uniform = np.where(model.mask.allowed1, 1.0 / 3.0, 0.0)
        fixed = Hmm1Model(model.mask, model.initial, uniform, model.emissions)
        out = symmetrize_ring_transitions(fixed)
        np.testing.assert_allclose(out.trans, uniform, rtol=1e-12)

    def test_order2_symmetrizes_first_step_matrix(self):
        model = make_random_model(np.random.default_rng(24), 2, "circular", "gmm")
        sym = symmetrize_ring_transitions(model)
        assert validate(sym) == []
        np.testing.assert_array_equal(sym.trans2, model.trans2)

    def test_rejects_ltr(self):
        model = make_random_model(np.random.default_rng(25), 1, "ltr", "gmm")
        with pytest.raises(ValueError):
            symmetrize_ring_transitions(model)
