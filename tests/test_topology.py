import numpy as np
import pytest

from hmmsid.models import TopologyMask, circular_topology, custom_topology, ltr_topology


class TestLtrTopology:
    def test_allowed_iff_jump_within_skip_width(self):
        mask = ltr_topology(5, skip_width=2)
        for i in range(5):
            for j in range(5):
                assert mask.allowed1[i, j] == (0 <= j - i <= 2)

    def test_default_skip_width_is_two(self):
        assert np.array_equal(ltr_topology(4).allowed1, ltr_topology(4, skip_width=2).allowed1)

    def test_no_backward_moves(self):
        mask = ltr_topology(6, skip_width=3)
        assert not mask.allowed1[np.tril_indices(6, k=-1)].any()

    def test_last_state_self_loop_only(self):
        mask = ltr_topology(4, skip_width=2)
        assert mask.allowed1[3].sum() == 1
        assert mask.allowed1[3, 3]

    def test_skip_width_one_is_strict_chain(self):
        mask = ltr_topology(4, skip_width=1)
        assert mask.allowed1.sum() == 4 + 3

    def test_skip_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            ltr_topology(4, skip_width=0)

    def test_kind_label(self):
        assert ltr_topology(3).kind == "ltr"


class TestCircularTopology:
    def test_ring_neighbourhood(self):
        n = 5
        mask = circular_topology(n)
        for i in range(n):
            for j in range(n):
                assert mask.allowed1[i, j] == ((j - i) % n in (0, 1, n - 1))

    def test_three_successors_per_state(self):
        mask = circular_topology(7)
        assert (mask.allowed1.sum(axis=1) == 3).all()

    def test_wraparound_edges_exist(self):
        mask = circular_topology(4)
        assert mask.allowed1[3, 0]
        assert mask.allowed1[0, 3]

    def test_symmetric_neighbourhood(self):
        mask = circular_topology(6)
        assert np.array_equal(mask.allowed1, mask.allowed1.T)

    def test_fewer_than_three_states_rejected(self):
        with pytest.raises(ValueError):
            circular_topology(2)

    def test_kind_label(self):
        assert circular_topology(3).kind == "circular"


class TestPairConsistency:
    def test_allowed2_factorizes(self):
        for mask in (ltr_topology(4, skip_width=2), circular_topology(5)):
            n = mask.n_states
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert mask.allowed2[i, j, k] == (
                            mask.allowed1[i, j] and mask.allowed1[j, k]
                        )

    def test_every_state_reaches_a_successor(self):
        for mask in (ltr_topology(3, skip_width=1), circular_topology(3)):
            assert mask.allowed1.any(axis=1).all()


class TestCustomTopology:
    def test_wraps_explicit_matrix(self):
        allowed = np.array([[True, True], [False, True]])
        mask = custom_topology(allowed)
        assert mask.kind == "custom"
        assert np.array_equal(mask.allowed1, allowed)

    def test_rejects_dead_row(self):
        allowed = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError):
            custom_topology(allowed)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            custom_topology(np.ones((2, 3), dtype=bool))

    def test_mask_always_induces_allowed2(self):
        base = ltr_topology(3)
        mask = TopologyMask(n_states=3, allowed1=base.allowed1, kind="ltr", skip_width=2)
        assert np.array_equal(mask.allowed2, base.allowed2)
