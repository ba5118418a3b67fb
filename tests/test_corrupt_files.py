"""Truncated and corrupted input files fail at the boundary.

A manifest, a model file or a feature cache that is cut at any byte, and a
manifest or cache header with one byte replaced, either still reads or
raises ValueError whose text names the file. No other exception type
escapes (UnicodeDecodeError, struct.error, KeyError, ...).
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import ALL_CONFIGS, make_random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmsid.corpus import CONDITIONS, GENDERS, SPLITS, ManifestRow, read_manifest, write_manifest
from hmmsid.features import FeatureMatrix, FeatureMeta, read_features, write_features
from hmmsid.models import load_model, save_model

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Non-empty, tab- and newline-free text of any script; surrogates have no
# UTF-8 form. Multi-byte characters put some cuts inside a character.
_IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"),
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
    # A model file's topology.n_states is not mutated here: ltr_topology
    # allocates its N x N index grids before any shape check.
    @SETTINGS
    @given(config=st.sampled_from(ALL_CONFIGS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_cut_anywhere(self, work, config, seed, data):
        path = work / "model.json"
        save_model(make_random_model(np.random.default_rng(seed), *config), path,
                   training={"speaker_id": data.draw(_IDS)})
        path.write_bytes(_cut(path.read_bytes(), data.draw))
        _reads_or_names(load_model, path)
