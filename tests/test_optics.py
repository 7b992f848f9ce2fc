import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutrit_teleport import algebra, optics, protocol, tomography
from qutrit_teleport.errors import DegenerateOutcomeError, DimensionError
from qutrit_teleport.optics import BD, DUMP_RAIL, HWP, PBS, FockState, Mode, H, V

S2 = math.sqrt(2)

# Generic input amplitudes used for the stagewise golden checks.
ALPHA, BETA, GAMMA = 0.5, 0.5j, complex(1 / S2)
PHI = np.array([ALPHA, BETA, GAMMA])
TRIGGER = Mode("t", 0, H)


def m(arm, rail, pol):
    return Mode(arm, rail, pol)


def vacuum():
    return FockState({(): 1.0})


def normalized(state):
    n = math.sqrt(state.norm_squared())
    if n == 0:
        raise ValueError("cannot normalize an empty state")
    return state.scaled(1.0 / n)


def total_photons(state):
    counts = {len(p) for p in state.terms}
    if len(counts) > 1:
        raise ValueError(f"mixed photon numbers in one state: {counts}")
    return counts.pop() if counts else 0


def stage_state(name):
    return optics.run_circuit(PHI, protocol.ChannelSpec.rebalanced(), through_stage=name)


def fock_oracle(phi, channel=None, visibility=None):
    """The direct path: one full circuit run, then a pass per H/V pattern.

    The four measured photons are projected onto all 16 H/V patterns;
    odd-parity patterns receive the feed-forward sign flip on level |2>.
    The teleported density matrix is the tag-traced mixture over patterns.
    """
    channel = channel or protocol.ChannelSpec.rebalanced()
    final = optics.run_circuit(phi, channel, visibility, "HWP1_4")
    rho = np.zeros((3, 3), dtype=complex)
    total_prob = 0.0
    measured_arms = ("a", "b", "c", "d")
    for pols in itertools.product((H, V), repeat=4):
        parity = sum(1 for p in pols if p == V) % 2
        vectors = {}
        for pattern, amp in final.terms.items():
            meas = {m.arm: m for m in pattern if m.arm in measured_arms}
            p3 = [m for m in pattern if m.arm == "p3"]
            if len(meas) != 4 or len(p3) != 1:
                continue
            if any(meas[a].pol != pol for a, pol in zip(measured_arms, pols)):
                continue
            level = optics.HYBRID_LEVEL.get((p3[0].rail, p3[0].pol))
            if level is None:
                continue
            tag_key = tuple(meas[a].tag for a in measured_arms)
            vec = vectors.setdefault(tag_key, np.zeros(3, dtype=complex))
            sign = -1.0 if (parity == 1 and level == 2) else 1.0
            vec[level] += sign * amp
        for vec in vectors.values():
            rho += np.outer(vec, vec.conj())
            total_prob += float(np.vdot(vec, vec).real)
    if total_prob > 0:
        rho /= total_prob
    return rho, total_prob


# V = 1, three uniform models and the benchmark's pairwise model.
KRAUS_MODELS = {
    "V=1": optics.VisibilityModel(),
    "V=0.9": optics.VisibilityModel(default=0.9),
    "V=0.75": optics.VisibilityModel(default=0.75),
    "V=0": optics.VisibilityModel(default=0.0),
    "pairwise": optics.VisibilityModel(default=0.95, pairwise={frozenset(("p1", "p2")): 0.8}),
}

SOURCE_PAIRS = [frozenset(p) for p in itertools.combinations(("p1", "p2", "aux_c", "aux_d"), 2)]


class TestFockState:
    def test_vacuum(self):
        assert vacuum().norm_squared() == 1.0

    def test_bosonic_merge_factor(self):
        # two photons in the same mode: amplitude carries sqrt(2!)
        one = optics.single_photon([(m("a", 0, H), 1.0)])
        two = one.tensor(one)
        assert abs(two.amplitude((m("a", 0, H), m("a", 0, H))) - S2) < 1e-12

    def test_hong_ou_mandel_bunching(self):
        # H and V photons in one arm through HWP(22.5): (a_H^2 - a_V^2)/2
        # acting on vacuum, so the two photons always leave together
        hv = optics.single_photon([(m("a", 0, H), 1.0)]).tensor(
            optics.single_photon([(m("a", 0, V), 1.0)])
        )
        out = HWP(22.5, ("a",)).apply(hv)
        assert abs(out.amplitude((m("a", 0, H), m("a", 0, H))) - 1 / S2) < 1e-12
        assert abs(out.amplitude((m("a", 0, V), m("a", 0, V))) + 1 / S2) < 1e-12
        assert out.amplitude((m("a", 0, H), m("a", 0, V))) == 0.0
        assert abs(out.norm_squared() - 1.0) < 1e-12

    def test_mixed_photon_number_rejected(self):
        bad = FockState({(m("a", 0, H),): 0.5, (m("a", 0, H), m("b", 0, H)): 0.5})
        with pytest.raises(ValueError):
            total_photons(bad)

    def test_normalize_empty_rejected(self):
        with pytest.raises(ValueError):
            normalized(FockState())


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

    def test_pbs_output_ports(self):
        # PBS1: photon 1 transmits into arm a, photon 2 into arm b
        pbs = PBS(("p1", "p2"), ports=("a", "b"))
        for arm, pol, port in (("p1", H, "a"), ("p1", V, "b"), ("p2", H, "b"), ("p2", V, "a")):
            out = pbs.apply(optics.single_photon([(m(arm, 1, pol), 1.0)]))
            assert out.terms == {(m(port, 1, pol),): 1.0}

    def test_norm_preserved_on_multiphoton_state(self):
        # A norm-preserving action on every state is a unitary mode transfer.
        rng = np.random.default_rng(2)
        modes = [m("a", 0, H), m("a", 0, V), m("b", 0, H), m("b", 0, V)]
        state = vacuum()
        for _ in range(3):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = state.tensor(optics.single_photon(list(zip(modes, amps))))
        state = normalized(state)
        for element in (
            HWP(22.5, ("a", "b")),
            HWP(45.0, ("a", "b")),
            PBS(("a", "b")),
            PBS(("a", "b"), ports=("c", "d")),
            BD(("a", "b"), {1: 0, 0: 2}),
        ):
            out = element.apply(state)
            assert abs(out.norm_squared() - 1.0) < 1e-12
            assert total_photons(out) == 3


class TestPostSelection:
    def test_one_photon_per_arm(self):
        accept = optics.one_photon_per_arm(("a", "b"))
        good = (m("a", 0, H), m("b", 0, V))
        bad = (m("a", 0, H), m("a", 0, V))
        assert accept(good)
        assert not accept(bad)

    def test_dump_rail_excluded(self):
        dumped = (Mode("a", DUMP_RAIL, V),)
        assert not optics.one_photon_per_arm(("a",))(dumped)
        assert not optics.no_dump_photons(dumped + (m("b", 0, H),))
        assert optics.no_dump_photons((m("a", 0, V), m("b", 0, H)))

    def test_post_select_probability(self):
        good = (m("a", 0, H), m("b", 0, H))
        state = FockState({good: 1 / S2, (m("a", 0, H), m("a", 0, V)): 1 / S2})
        kept = optics.keep(state, optics.one_photon_per_arm(("a", "b")))
        assert list(kept.terms) == [good]
        assert abs(kept.norm_squared() - 0.5) < 1e-12


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

    @pytest.mark.parametrize("level", [1, 2])
    def test_no_accepted_outcome_raises(self, level):
        # the channel carries only |00>, so no outcome accepts |1> or |2>:
        # there is no conditional state to return
        channel = protocol.ChannelSpec((1.0, 0.0, 0.0))
        with pytest.raises(DegenerateOutcomeError):
            optics.run_teleportation(algebra.ket(level), channel)
        rho, prob = optics.run_teleportation(algebra.ket(0), channel)
        assert prob > 0
        assert abs(algebra.fidelity(rho, algebra.ket(0)) - 1.0) < 1e-9


class TestVisibility:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            optics.VisibilityModel(default=1.2)
        with pytest.raises(ValueError):
            optics.VisibilityModel(pairwise={frozenset(("p1", "p2")): -0.1})

    @pytest.mark.parametrize(
        "key",
        [frozenset(("p1", "p3")), "p1", frozenset(("p1",)), ("p1", "p2"), frozenset("abc")],
    )
    def test_model_rejects_keys_it_would_ignore(self, key):
        with pytest.raises(ValueError, match="pairwise key"):
            optics.VisibilityModel(pairwise={key: 0.5})

    def test_pairwise_fixed_once_checked(self):
        # the model keeps a read-only copy, so it hashes and compares by value
        pair = frozenset(("p1", "p2"))
        given = {pair: 0.8}
        vis = optics.VisibilityModel(default=0.95, pairwise=given)
        given[pair] = 1.5
        assert vis.visibility("p1", "p2") == 0.8
        with pytest.raises(TypeError):
            vis.pairwise[pair] = 1.5
        same = optics.VisibilityModel(default=0.95, pairwise={pair: 0.8})
        assert vis == same and hash(vis) == hash(same)
        assert vis != optics.VisibilityModel(default=0.95, pairwise={pair: 0.7})

    def test_run_teleportation_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            optics.run_teleportation(np.array([np.nan, 0.0, 0.0]))

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


class TestKrausCompile:
    @pytest.mark.parametrize("label", KRAUS_MODELS)
    def test_matches_fock_oracle(self, label):
        vis = KRAUS_MODELS[label]
        for phi in protocol.benchmark_input_states():
            rho, prob = optics.run_teleportation(phi, visibility=vis)
            rho_ref, prob_ref = fock_oracle(phi, visibility=vis)
            assert np.abs(rho - rho_ref).max() < 1e-12
            assert abs(prob - prob_ref) < 1e-12
            # zeros stay exact: a zero Poisson mean draws no random number
            assert np.array_equal(rho == 0, rho_ref == 0)
            born = tomography.born_probabilities(rho)
            assert np.array_equal(born <= 0, tomography.born_probabilities(rho_ref) <= 0)

    @settings(max_examples=12, deadline=None)
    @given(
        amps=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        default=st.floats(0.0, 1.0),
        pair=st.sampled_from(SOURCE_PAIRS),
        value=st.floats(0.0, 1.0),
    )
    def test_property_matches_fock_oracle(self, amps, default, pair, value):
        phi = np.array(amps[:3]) + 1j * np.array(amps[3:])
        assume(np.linalg.norm(phi) > 0.1)
        phi = phi / np.linalg.norm(phi)
        vis = optics.VisibilityModel(default=default, pairwise={pair: value})
        rho, prob = optics.run_teleportation(phi, visibility=vis)
        rho_ref, prob_ref = fock_oracle(phi, visibility=vis)
        assert np.abs(rho - rho_ref).max() < 1e-12
        assert abs(prob - prob_ref) < 1e-12

    @pytest.fixture
    def circuit_runs(self, monkeypatch):
        """Counts run_circuit calls, starting from an empty Kraus cache."""
        optics._kraus_set.cache_clear()
        calls = []
        run_circuit = optics.run_circuit

        def counted(*args, **kwargs):
            calls.append(args)
            return run_circuit(*args, **kwargs)

        monkeypatch.setattr(optics, "run_circuit", counted)
        yield calls
        optics._kraus_set.cache_clear()

    def test_compiled_once_per_model(self, circuit_runs):
        def model(v):
            return optics.VisibilityModel(default=0.95, pairwise={frozenset(("p1", "p2")): v})

        vis = model(0.8)
        for phi in protocol.benchmark_input_states():
            optics.run_teleportation(phi, visibility=vis)
        assert len(circuit_runs) == 3
        optics.run_teleportation(PHI, visibility=model(0.8))  # equal values, new object
        assert len(circuit_runs) == 3
        optics.run_teleportation(PHI, visibility=model(0.7))
        assert len(circuit_runs) == 6
        optics.run_teleportation(PHI, protocol.ChannelSpec.maximal(), model(0.7))
        assert len(circuit_runs) == 9

    def test_cache_bounded(self, circuit_runs):
        size = optics.KRAUS_CACHE_SIZE
        channels = []
        for k in range(size + 1):
            s = np.array([1.0, 1.0, 1.0 + k / 10])
            channels.append(protocol.ChannelSpec(tuple(s / np.linalg.norm(s))))
        for channel in channels:
            optics.run_teleportation(PHI, channel)
        assert optics._kraus_set.cache_info().currsize == size
        assert len(circuit_runs) == 3 * (size + 1)
        optics.run_teleportation(PHI, channels[-1])
        assert len(circuit_runs) == 3 * (size + 1)
        optics.run_teleportation(PHI, channels[0])  # evicted first
        assert len(circuit_runs) == 3 * (size + 2)

    def test_input_checked_on_cache_hit(self, circuit_runs):
        optics.run_teleportation(PHI)
        with pytest.raises(ValueError):
            optics.run_teleportation(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DimensionError):
            optics.run_teleportation(np.array([1.0, 0.0]))
        assert len(circuit_runs) == 3

    def test_kraus_set_read_only(self):
        kraus = optics._kraus_set(protocol.ChannelSpec.rebalanced(), optics.VisibilityModel())
        with pytest.raises(ValueError):
            kraus[0, 0, 0] = 1.0

    @pytest.mark.parametrize("v", [1.0, 0.9, 0.75, 0.5, 0.0])
    def test_damping_formula_exact(self, v):
        vis = optics.VisibilityModel(default=v)
        phi = protocol.benchmark_input_states()[9]
        assert np.allclose(phi, np.ones(3) / math.sqrt(3), atol=1e-15)
        rho, _ = optics.run_teleportation(phi, visibility=vis)
        ideal = algebra.projector(phi)
        for j, k in itertools.permutations(range(3), 2):
            factor = optics.visibility_damping_factor(vis, (j, k))
            assert abs(rho[j, k] - factor * ideal[j, k]) < 1e-12
        for i in range(3):
            assert abs(rho[i, i] - ideal[i, i]) < 1e-12


class TestCircuitBuilder:
    def test_stage_names(self):
        assert optics.STAGE_NAMES == ("INPUT", "PBS1", "BD1_BD3", "HWPS", "BD2_BD4", "AUX_PBS", "HWP1_4")
