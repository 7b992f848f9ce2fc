import math
from fractions import Fraction

import numpy as np
import pytest

from qutrit_teleport import algebra, protocol
from qutrit_teleport.errors import DegenerateOutcomeError, DimensionError


def channel_state_vector(channel):
    """The bipartite ket sum_k s_k |kk> as a flat vector indexed (i, j) -> i*3 + j."""
    v = np.zeros(9, dtype=complex)
    for k, s in enumerate(channel.schmidt_coefficients):
        v[k * 3 + k] = s
    return v


class TestChannelSpec:
    def test_maximal(self):
        chan = protocol.ChannelSpec.maximal()
        assert np.abs(np.array(chan.schmidt_coefficients) - 1 / math.sqrt(3)).max() < 1e-12

    def test_rebalanced(self):
        chan = protocol.ChannelSpec.rebalanced()
        assert chan.schmidt_coefficients == (2 / 3, 2 / 3, 1 / 3)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            protocol.ChannelSpec((1.0, 1.0, 0.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            protocol.ChannelSpec((-2 / 3, 2 / 3, 1 / 3))

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0), (0.5, 0.5, 0.5, 0.5)], ids=["two", "four"])
    def test_rejects_other_lengths(self, coeffs):
        # normalized and non-negative, so only the length is wrong
        with pytest.raises(DimensionError, match="3 Schmidt coefficients"):
            protocol.ChannelSpec(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [(math.nan,) * 3, (math.inf, 0.0, 0.0), (-math.inf, 2 / 3, 1 / 3), (math.nan, 2 / 3, 2 / 3)],
        ids=["all-nan", "inf", "minus-inf", "one-nan"],
    )
    def test_rejects_non_finite(self, coeffs):
        # every comparison with NaN is false: the sign and norm checks pass it
        with pytest.raises(ValueError, match="must be finite"):
            protocol.ChannelSpec(coeffs)

    def test_state_vector(self):
        v = channel_state_vector(protocol.ChannelSpec.rebalanced())
        assert abs(v[0] - 2 / 3) < 1e-12
        assert abs(v[4] - 2 / 3) < 1e-12
        assert abs(v[8] - 1 / 3) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestDecomposition:
    @pytest.mark.parametrize("channel", [protocol.ChannelSpec.maximal(), protocol.ChannelSpec.rebalanced()])
    def test_probabilities_sum_to_one(self, channel):
        rng = np.random.default_rng(11)
        for _ in range(5):
            phi = algebra.random_pure_state(rng)
            branches = protocol.decompose_input(channel, phi)
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9

    def test_maximal_channel_uniform_probabilities(self):
        rng = np.random.default_rng(5)
        phi = algebra.random_pure_state(rng)
        for b in protocol.decompose_input(protocol.ChannelSpec.maximal(), phi):
            assert abs(b.probability - 1 / 9) < 1e-12

    def test_maximal_channel_conditional_is_weyl_inverse(self):
        rng = np.random.default_rng(6)
        phi = algebra.random_pure_state(rng)
        for b in protocol.decompose_input(protocol.ChannelSpec.maximal(), phi):
            expected = algebra.weyl_operator(b.n, b.m).conj().T @ phi
            overlap = abs(np.vdot(expected, b.conditional_state))
            assert abs(overlap - 1.0) < 1e-12

    def test_branch_probability_formula(self):
        # p_nm = (1/3) sum_j |phi_j|^2 s_{(j+m) mod 3}^2, independent of n
        chan = protocol.ChannelSpec.rebalanced()
        rng = np.random.default_rng(12)
        phi = algebra.random_pure_state(rng)
        s = np.array(chan.schmidt_coefficients)
        for b in protocol.decompose_input(chan, phi):
            expected = sum(abs(phi[j]) ** 2 * s[(j + b.m) % 3] ** 2 for j in range(3)) / 3
            assert abs(b.probability - expected) < 1e-12

    def test_reassembly(self):
        # sum_nm sqrt(p) |psi_nm>_12 (x) |cond>_3 reconstructs |phi>_1 (x) |xi>_23
        for chan in (protocol.ChannelSpec.maximal(), protocol.ChannelSpec.rebalanced()):
            rng = np.random.default_rng(13)
            phi = algebra.random_pure_state(rng)
            total = np.zeros(27, dtype=complex)
            for b in protocol.decompose_input(chan, phi):
                bell = algebra.bell_state(b.n, b.m)
                amp = math.sqrt(b.probability)
                # index order (i1, i2, i3): bell carries (i1, i2)
                total += amp * np.kron(bell, b.conditional_state)
            # target: phi_1 (x) sum_k s_k |kk>_23, reordered to (i1,i2,i3)
            target = np.zeros(27, dtype=complex)
            for i1 in range(3):
                for k in range(3):
                    target[i1 * 9 + k * 3 + k] = phi[i1] * chan.schmidt_coefficients[k]
            # global phase alignment
            idx = np.argmax(np.abs(target))
            total = total * (target[idx] / total[idx])
            assert np.abs(total - target).max() < 1e-9

    def test_dim_guard(self):
        with pytest.raises(DimensionError):
            channel = protocol.ChannelSpec((1.0, 0.0))
            protocol.decompose_input(channel, np.array([1.0, 0.0]))


class TestTeleportIdeal:
    def test_maximal_channel_all_labels_all_inputs(self):
        chan = protocol.ChannelSpec.maximal()
        for phi in protocol.benchmark_input_states():
            for label in algebra.BELL_LABELS:
                out = protocol.teleport_ideal(chan, phi, label)
                assert abs(abs(np.vdot(phi, out)) - 1.0) < 1e-12

    def test_rebalanced_channel_partial_fidelity(self):
        # (|0> + |2>)/sqrt2 through the (2,2,1)/3 channel, outcome (0,0):
        # amplitudes re-weight to (2/3, 0, 1/3)/norm, giving fidelity 9/10.
        chan = protocol.ChannelSpec.rebalanced()
        phi = np.array([1, 0, 1]) / math.sqrt(2)
        out = protocol.teleport_ideal(chan, phi, (0, 0))
        fid = abs(np.vdot(phi, out)) ** 2
        assert abs(fid - 0.9) < 1e-12

    def test_degenerate_branch_raises(self):
        chan = protocol.ChannelSpec((1 / math.sqrt(2), 1 / math.sqrt(2), 0.0))
        with pytest.raises(DegenerateOutcomeError):
            protocol.teleport_ideal(chan, algebra.ket(0), (0, 2))


class TestSuccessProbability:
    def test_exact_fractions(self):
        assert protocol.success_probability("maximal_single_basis") == Fraction(1, 54)
        assert protocol.success_probability("nonmaximal_rebalanced") == Fraction(1, 18)

    def test_ratio_is_three(self):
        ratio = protocol.success_probability("nonmaximal_rebalanced") / protocol.success_probability(
            "maximal_single_basis"
        )
        assert ratio == Fraction(3, 1)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            protocol.success_probability("bogus")


class TestBenchmarkStates:
    def test_ten_normalized_states(self):
        states = protocol.benchmark_input_states()
        assert len(states) == 10
        for phi in states:
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12

    def test_first_three_are_basis(self):
        states = protocol.benchmark_input_states()
        for i in range(3):
            assert np.abs(states[i] - algebra.ket(i)).max() < 1e-12
