"""Truncated and corrupted input files fail at the boundary.

A manifest, a model file or a feature cache that is cut at any byte, and a
manifest or cache header with one byte replaced, either still reads or
raises ValueError whose text names the file. No other exception type
escapes (UnicodeDecodeError, struct.error, KeyError, ...).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import ALL_CONFIGS, make_random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmsid.corpus import CONDITIONS, GENDERS, SPLITS, ManifestRow, read_manifest, write_manifest
from hmmsid.features import FeatureMatrix, FeatureMeta, read_features, write_features
from hmmsid.models import load_model, save_model

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Characters a manifest field may not hold: a tab, and each at which
# str.splitlines breaks a line.
_BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Non-empty text of any script free of those; surrogates have no UTF-8
# form. Multi-byte characters put some cuts inside a character.
_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_BREAKS),
               min_size=1, max_size=6)
_ROWS = st.lists(
    st.builds(ManifestRow, _IDS, _IDS, st.sampled_from(GENDERS), _IDS,
              st.sampled_from(CONDITIONS), st.sampled_from(SPLITS), _IDS),
    min_size=1, max_size=4,
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt")


def _reads_or_names(read, path):
    """Call ``read(path)``; a failure must be a ValueError naming ``path``."""
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc)


def _cut(data, draw):
    return data[:draw(st.integers(0, len(data)))]


def _replace_one(data, draw, end=None):
    at = draw(st.integers(0, len(data) - 1 if end is None else end - 1))
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


class TestManifest:
    @SETTINGS
    @given(fields=st.lists(
        st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(_BREAKS)),
                max_size=4),
        min_size=4, max_size=4),
        gender=st.sampled_from(GENDERS), condition=st.sampled_from(CONDITIONS),
        split=st.sampled_from(SPLITS))
    def test_every_row_that_builds_reads_back(self, work, fields, gender, condition, split):
        """A row either fails when it is built, or write_manifest and
        read_manifest give it back."""
        utterance, speaker, word, path = fields
        try:
            row = ManifestRow(utterance, speaker, gender, word, condition, split, path)
        except ValueError:
            assert any(not f or set(f) & set(_BREAKS) for f in fields)
            return
        manifest = work / "manifest.tsv"
        write_manifest([row, row], manifest)
        assert read_manifest(manifest) == [row, row]

    @SETTINGS
    @given(rows=_ROWS, data=st.data())
    def test_cut_anywhere(self, work, rows, data):
        path = work / "manifest.tsv"
        write_manifest(rows, path)
        path.write_bytes(_cut(path.read_bytes(), data.draw))
        _reads_or_names(read_manifest, path)

    @SETTINGS
    @given(rows=_ROWS, data=st.data())
    def test_one_byte_replaced(self, work, rows, data):
        path = work / "manifest.tsv"
        write_manifest(rows, path)
        path.write_bytes(_replace_one(path.read_bytes(), data.draw))
        _reads_or_names(read_manifest, path)


class TestFeatureCache:
    @staticmethod
    def _cache(work, data):
        t, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        meta = FeatureMeta(cms_applied=data.draw(st.booleans()),
                           config_hash=data.draw(st.integers(0, 2**64 - 1)))
        path = work / "utt.lpcf"
        write_features(FeatureMatrix(np.arange(t * d, dtype=float).reshape(t, d), meta), path)
        return path

    @SETTINGS
    @given(data=st.data())
    def test_cut_anywhere(self, work, data):
        path = self._cache(work, data)
        path.write_bytes(_cut(path.read_bytes(), data.draw))
        _reads_or_names(read_features, path)

    @SETTINGS
    @given(data=st.data())
    def test_one_header_byte_replaced(self, work, data):
        path = self._cache(work, data)
        path.write_bytes(_replace_one(path.read_bytes(), data.draw, end=24))
        _reads_or_names(read_features, path)


class TestModelFile:
    @staticmethod
    def _saved(work, config, seed):
        path = work / "model.json"
        model = make_random_model(np.random.default_rng(seed), *config)
        save_model(model, path)
        return path, model.n_states

    @SETTINGS
    @given(config=st.sampled_from(ALL_CONFIGS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_wrong_state_count(self, work, config, seed, data):
        path, n_states = self._saved(work, config, seed)
        d = json.loads(path.read_text())
        d["topology"]["n_states"] = data.draw(
            st.integers(-2, n_states + 3).filter(lambda n: n != n_states)
            | st.sampled_from([float(n_states), str(n_states), True, None]))
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="n_states") as caught:
            load_model(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("n_states", [10**6, 10**12, 2**63])
    def test_huge_state_count_is_rejected_before_any_grid(self, work, n_states):
        """A count this large would size (N, N) index grids of terabytes;
        it is compared with the initial distribution's length first."""
        path, want = self._saved(work, (2, "ltr", "gmm"), 0)
        d = json.loads(path.read_text())
        d["topology"]["n_states"] = n_states
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"topology n_states {n_states} != {want},") as caught:
            load_model(path)
        assert str(path) in str(caught.value)

    @SETTINGS
    @given(config=st.sampled_from(ALL_CONFIGS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_cut_anywhere(self, work, config, seed, data):
        path = work / "model.json"
        save_model(make_random_model(np.random.default_rng(seed), *config), path,
                   training={"speaker_id": data.draw(_IDS)})
        path.write_bytes(_cut(path.read_bytes(), data.draw))
        _reads_or_names(load_model, path)
