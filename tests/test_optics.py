import math

import numpy as np
import pytest

from qutrit_teleport import algebra, optics, protocol
from qutrit_teleport.optics import BD, DUMP_RAIL, HWP, PBS, FockState, Mode, H, V

S2 = math.sqrt(2)

# Generic input amplitudes used for the stagewise golden checks.
ALPHA, BETA, GAMMA = 0.5, 0.5j, complex(1 / S2)
PHI = np.array([ALPHA, BETA, GAMMA])
TRIGGER = Mode("t", 0, H)


def m(arm, rail, pol):
    return Mode(arm, rail, pol)


def stage_state(name):
    return optics.run_circuit(PHI, protocol.ChannelSpec.rebalanced(), through_stage=name)


class TestFockState:
    def test_vacuum(self):
        assert FockState.vacuum().norm_squared() == 1.0

    def test_bosonic_merge_factor(self):
        # two photons in the same mode: amplitude carries sqrt(2!)
        one = optics.single_photon([(m("a", 0, H), 1.0)])
        two = one.tensor(one)
        assert abs(two.amplitude((m("a", 0, H), m("a", 0, H))) - S2) < 1e-12

    def test_mixed_photon_number_rejected(self):
        bad = FockState({(m("a", 0, H),): 0.5, (m("a", 0, H), m("b", 0, H)): 0.5})
        with pytest.raises(ValueError):
            bad.total_photons()

    def test_normalize_empty_rejected(self):
        with pytest.raises(ValueError):
            FockState().normalized()


class TestElements:
    def test_pbs_transmits_h_reflects_v(self):
        pbs = PBS(("a", "b"))
        state = optics.single_photon([(m("a", 0, H), 1.0)])
        out = pbs.apply(state)
        assert abs(out.amplitude((m("a", 0, H),)) - 1.0) < 1e-12
        state = optics.single_photon([(m("a", 0, V), 1.0)])
        out = pbs.apply(state)
        assert abs(out.amplitude((m("b", 0, V),)) - 1.0) < 1e-12

    def test_bd_moves_v_only(self):
        bd = BD(("a",), {1: 0})
        out = bd.apply(optics.single_photon([(m("a", 1, V), 1.0)]))
        assert abs(out.amplitude((m("a", 0, V),)) - 1.0) < 1e-12
        out = bd.apply(optics.single_photon([(m("a", 1, H), 1.0)]))
        assert abs(out.amplitude((m("a", 1, H),)) - 1.0) < 1e-12

    def test_bd_rail_map_injective(self):
        with pytest.raises(ValueError):
            BD(("a",), {0: 1, 2: 1})

    def test_hwp_convention(self):
        hwp = HWP(22.5, ("a",))
        out = hwp.apply(optics.single_photon([(m("a", 0, H), 1.0)]))
        assert abs(out.amplitude((m("a", 0, H),)) - 1 / S2) < 1e-12
        assert abs(out.amplitude((m("a", 0, V),)) - 1 / S2) < 1e-12
        out = hwp.apply(optics.single_photon([(m("a", 0, V), 1.0)]))
        assert abs(out.amplitude((m("a", 0, H),)) - 1 / S2) < 1e-12
        assert abs(out.amplitude((m("a", 0, V),)) + 1 / S2) < 1e-12

    @pytest.mark.parametrize(
        "element,modes",
        [
            (HWP(22.5, ("a",)), [m("a", 0, H), m("a", 0, V)]),
            (HWP(45.0, ("a",)), [m("a", 0, H), m("a", 0, V)]),
            (PBS(("a", "b")), [m("a", 0, H), m("a", 0, V), m("b", 0, H), m("b", 0, V)]),
            (BD(("a",), {1: 0, 0: 2}), [m("a", 0, V), m("a", 1, V), m("a", 0, H)]),
        ],
    )
    def test_transfer_matrix_unitary(self, element, modes):
        u = element.transfer_matrix(modes)
        assert np.abs(u.conj().T @ u - np.eye(len(modes))).max() < 1e-12

    def test_norm_preserved_on_multiphoton_state(self):
        rng = np.random.default_rng(2)
        modes = [m("a", 0, H), m("a", 0, V), m("b", 0, H), m("b", 0, V)]
        state = FockState.vacuum()
        for _ in range(3):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = state.tensor(optics.single_photon(list(zip(modes, amps))))
        state = state.normalized()
        for element in (HWP(22.5, ("a", "b")), PBS(("a", "b"))):
            out = element.apply(state)
            assert abs(out.norm_squared() - 1.0) < 1e-12


class TestPostSelection:
    def test_one_photon_per_arm(self):
        pattern = optics.one_photon_per_arm(("a", "b"))
        good = (m("a", 0, H), m("b", 0, V))
        bad = (m("a", 0, H), m("a", 0, V))
        assert pattern.matches(good)
        assert not pattern.matches(bad)

    def test_dump_rail_excluded(self):
        pattern = optics.one_photon_per_arm(("a",))
        assert not pattern.matches((Mode("a", DUMP_RAIL, V),))

    def test_post_select_probability(self):
        state = FockState(
            {
                (m("a", 0, H), m("b", 0, H)): 1 / S2,
                (m("a", 0, H), m("a", 0, V)): 1 / S2,
            }
        )
        kept, prob = optics.post_select(state, optics.one_photon_per_arm(("a", "b")))
        assert abs(prob - 0.5) < 1e-12
        assert abs(kept.norm_squared() - 1.0) < 1e-12


class TestStageGoldenAmplitudes:
    """The stagewise amplitudes of the published walk-through of the circuit."""

    def check(self, state, modes, expected):
        got = state.amplitude(tuple(modes) + (TRIGGER,))
        assert abs(got - expected) < 1e-9, f"{modes}: got {got}, expected {expected}"

    def test_after_pbs1(self):
        s = stage_state("PBS1")
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 0, H)), 2 * ALPHA / 3)
        self.check(s, (m("a", 0, H), m("b", 2, H), m("p3", 2, H)), ALPHA / 3)
        self.check(s, (m("a", 1, V), m("b", 1, V), m("p3", 1, V)), 2 * BETA / 3)
        self.check(s, (m("a", 2, H), m("b", 0, H), m("p3", 0, H)), 2 * GAMMA / 3)
        self.check(s, (m("a", 2, H), m("b", 2, H), m("p3", 2, H)), GAMMA / 3)

    def test_after_bd1_bd3(self):
        s = stage_state("BD1_BD3")
        self.check(s, (m("a", 0, V), m("b", 0, V), m("p3", 0, H)), 2 * ALPHA / 3)
        self.check(s, (m("a", 0, V), m("b", 1, H), m("p3", 2, H)), ALPHA / 3)
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 1, V)), 2 * BETA / 3)
        self.check(s, (m("a", 1, H), m("b", 0, V), m("p3", 0, H)), 2 * GAMMA / 3)
        self.check(s, (m("a", 1, H), m("b", 1, H), m("p3", 2, H)), GAMMA / 3)

    def test_after_hwps(self):
        s = stage_state("HWPS")
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 0, H)), ALPHA / 3)
        self.check(s, (m("a", 0, H), m("b", 0, V), m("p3", 0, H)), -ALPHA / 3)
        self.check(s, (m("a", 0, V), m("b", 0, H), m("p3", 0, H)), -ALPHA / 3)
        self.check(s, (m("a", 0, V), m("b", 0, V), m("p3", 0, H)), ALPHA / 3)
        self.check(s, (m("a", 0, H), m("b", 1, H), m("p3", 2, H)), ALPHA / (3 * S2))
        self.check(s, (m("a", 0, V), m("b", 1, H), m("p3", 2, H)), -ALPHA / (3 * S2))
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 1, V)), BETA / 3)
        self.check(s, (m("a", 0, V), m("b", 0, V), m("p3", 1, V)), BETA / 3)
        self.check(s, (m("a", 1, H), m("b", 0, H), m("p3", 0, H)), S2 * GAMMA / 3)
        self.check(s, (m("a", 1, H), m("b", 0, V), m("p3", 0, H)), -S2 * GAMMA / 3)
        self.check(s, (m("a", 1, H), m("b", 1, H), m("p3", 2, H)), GAMMA / 3)

    def test_after_bd2_bd4(self):
        s = stage_state("BD2_BD4")
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 0, H)), ALPHA / 3)
        self.check(s, (m("a", 0, H), m("b", 0, V), m("p3", 2, H)), S2 * ALPHA / 6)
        self.check(s, (m("a", 0, H), m("b", 0, H), m("p3", 1, V)), BETA / 3)
        self.check(s, (m("a", 0, V), m("b", 0, H), m("p3", 0, H)), S2 * GAMMA / 3)
        self.check(s, (m("a", 0, V), m("b", 0, V), m("p3", 2, H)), GAMMA / 3)

    def test_after_aux_pbs(self):
        s = stage_state("AUX_PBS")
        four_h = (m("a", 0, H), m("b", 0, H), m("c", 0, H), m("d", 0, H))
        four_v = (m("a", 0, V), m("b", 0, V), m("c", 0, V), m("d", 0, V))
        self.check(s, four_h + (m("p3", 0, H),), S2 * ALPHA / 6)
        self.check(s, four_h + (m("p3", 1, V),), S2 * BETA / 6)
        self.check(s, four_v + (m("p3", 2, H),), S2 * GAMMA / 6)

    def test_noise_terms_cancelled(self):
        # descendants of the classical |02> / |20> terms vanish after the
        # auxiliary-pair coincidence selection: only the three retained
        # patterns carry any amplitude
        s = stage_state("AUX_PBS")
        allowed = {
            tuple(sorted((m("a", 0, H), m("b", 0, H), m("c", 0, H), m("d", 0, H), m("p3", 0, H), TRIGGER))),
            tuple(sorted((m("a", 0, H), m("b", 0, H), m("c", 0, H), m("d", 0, H), m("p3", 1, V), TRIGGER))),
            tuple(sorted((m("a", 0, V), m("b", 0, V), m("c", 0, V), m("d", 0, V), m("p3", 2, H), TRIGGER))),
        }
        for pattern, amp in s.terms.items():
            if pattern not in allowed:
                assert abs(amp) < 1e-12, f"leftover noise amplitude on {pattern}"

    def test_after_hwp1_4(self):
        s = stage_state("HWP1_4")
        for pols in ((H, H, H, H), (H, H, V, V), (H, V, H, H), (V, V, V, H)):
            parity = sum(1 for p in pols if p == V) % 2
            sign = -1.0 if parity else 1.0
            meas = tuple(m(arm, 0, p) for arm, p in zip(("a", "b", "c", "d"), pols))
            self.check(s, meas + (m("p3", 0, H),), S2 * ALPHA / 24)
            self.check(s, meas + (m("p3", 1, V),), S2 * BETA / 24)
            self.check(s, meas + (m("p3", 2, H),), sign * S2 * GAMMA / 24)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            optics.run_circuit(PHI, protocol.ChannelSpec.rebalanced(), through_stage="NOPE")


class TestFullRun:
    def test_success_probability_and_fidelity(self):
        rho, prob = optics.run_teleportation(PHI)
        assert abs(prob - 1 / 18) < 1e-9
        assert abs(algebra.fidelity(rho, PHI) - 1.0) < 1e-9

    @pytest.mark.parametrize("i", range(10))
    def test_all_benchmark_inputs_teleport_exactly(self, i):
        phi = protocol.benchmark_input_states()[i]
        rho, prob = optics.run_teleportation(phi)
        assert abs(prob - 1 / 18) < 1e-9
        assert abs(algebra.fidelity(rho, phi) - 1.0) < 1e-9


class TestVisibility:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            optics.VisibilityModel(default=1.2)
        with pytest.raises(ValueError):
            optics.VisibilityModel(pairwise={frozenset(("p1", "p2")): -0.1})

    def test_tag_vectors_reproduce_gram(self):
        vis = optics.VisibilityModel(
            default=0.8, pairwise={frozenset(("p1", "p2")): 0.9}
        )
        vecs = vis.tag_vectors()
        sources = ["p1", "p2", "aux_c", "aux_d"]
        for i, a in enumerate(sources):
            for j, b in enumerate(sources):
                expected = math.sqrt(vis.visibility(a, b))
                assert abs(np.dot(vecs[a], vecs[b]) - expected) < 1e-9

    def test_perfect_visibility_single_tag(self):
        vecs = optics.VisibilityModel().tag_vectors()
        for v in vecs.values():
            assert v.shape == (1,)
            assert abs(v[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("v", [1.0, 0.9, 0.8])
    def test_basis_states_unaffected(self, v):
        vis = optics.VisibilityModel(default=v)
        for i in range(3):
            rho, prob = optics.run_teleportation(algebra.ket(i), visibility=vis)
            assert abs(algebra.fidelity(rho, algebra.ket(i)) - 1.0) < 1e-9

    def test_uniform_visibility_damps_coherences_exactly(self):
        v = 0.75
        vis = optics.VisibilityModel(default=v)
        phi = np.ones(3) / math.sqrt(3)
        rho, _ = optics.run_teleportation(phi, visibility=vis)
        ideal = algebra.projector(phi)
        for pair, factor in [((0, 1), v), ((0, 2), v * v), ((1, 2), v * v)]:
            j, k = pair
            assert abs(rho[j, k] - factor * ideal[j, k]) < 1e-9
            assert abs(optics.visibility_damping_factor(vis, pair) - factor) < 1e-12
        # populations unchanged
        for i in range(3):
            assert abs(rho[i, i] - ideal[i, i]) < 1e-9

    def test_superposition_fidelity_monotone_in_visibility(self):
        phi = np.ones(3) / math.sqrt(3)
        fids = []
        for v in (1.0, 0.9, 0.8, 0.6):
            rho, _ = optics.run_teleportation(phi, visibility=optics.VisibilityModel(default=v))
            fids.append(algebra.fidelity(rho, phi))
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_zero_visibility_kills_interference_coherence(self):
        vis = optics.VisibilityModel(default=0.0)
        phi = np.array([1, 1, 0]) / math.sqrt(2)
        rho, _ = optics.run_teleportation(phi, visibility=vis)
        assert abs(rho[0, 1]) < 1e-9


class TestWhiteNoise:
    def test_mixing(self):
        rho = algebra.projector(algebra.ket(0))
        mixed = optics.mix_white_noise(rho, 0.3)
        assert abs(np.trace(mixed).real - 1.0) < 1e-12
        assert abs(mixed[1, 1] - 0.1) < 1e-12

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            optics.mix_white_noise(np.eye(3) / 3, 1.5)


class TestCircuitBuilder:
    def test_stage_names(self):
        names = [s.name for s in optics.build_hdbsm_circuit()]
        assert names == ["PBS1", "BD1_BD3", "HWPS", "BD2_BD4", "AUX_PBS", "HWP1_4"]

    def test_only_dim_three(self):
        from qutrit_teleport.errors import DimensionError

        with pytest.raises(DimensionError):
            optics.build_hdbsm_circuit(dim=4)
