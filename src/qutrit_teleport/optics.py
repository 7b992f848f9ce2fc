"""Second-quantized simulation of the six-photon teleportation experiment.

Photons live in modes labeled by (arm, rail, polarization, tag). The tag
tracks which-source distinguishability: photons from different sources
carry wavepacket vectors whose overlaps reproduce the pairwise HOM
visibilities, and tracing the tags out at the end damps exactly the
interference-mediated coherences of the teleported state.

The high-dimensional Bell-measurement circuit is one table of stages
(PBS1, BD1_BD3, HWPS, BD2_BD4, AUX_PBS, HWP1_4), each a tuple of elements
followed by an optional post-selection; with perfect visibility and the
rebalanced (2,2,1)/3 channel, the run succeeds with probability 1/18 and
reproduces the input state exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import algebra
from .protocol import ChannelSpec

AMP_CUTOFF = 1e-14

H = "H"
V = "V"

DUMP_RAIL = -1  # beams displaced out of the collection path


class Mode(NamedTuple):
    arm: str
    rail: int
    pol: str
    tag: int = 0


class FockState:
    """Sparse superposition over photon-number patterns.

    Patterns are stored as sorted tuples of Modes with repetition, each
    with the coefficient of its creation monomial a+...a+|0>. Elements and
    tensor products then only multiply coefficients; the normalized Fock
    amplitude is the coefficient times ``_sym_factor``, which is 1 unless
    a mode holds two or more photons.
    """

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for pattern, amp in terms.items():
                if abs(amp) > AMP_CUTOFF:
                    key = tuple(sorted(pattern))
                    self.terms[key] = self.terms.get(key, 0.0) + amp

    def norm_squared(self):
        return float(sum(abs(a * _sym_factor(p)) ** 2 for p, a in self.terms.items()))

    def scaled(self, factor):
        return FockState({p: a * factor for p, a in self.terms.items()})

    def tensor(self, other):
        out = {}
        for p1, a1 in self.terms.items():
            for p2, a2 in other.terms.items():
                pattern = tuple(sorted(p1 + p2))
                out[pattern] = out.get(pattern, 0.0) + a1 * a2
        return FockState(out)

    def amplitude(self, modes):
        """Amplitude of the normalized Fock state with the given photon modes."""
        pattern = tuple(sorted(modes))
        return self.terms.get(pattern, 0.0) * _sym_factor(pattern)

    def __repr__(self):
        parts = [f"{a:+.4f} |{p}>" for p, a in sorted(self.terms.items())]
        return "FockState(" + " ".join(parts) + ")"


def _sym_factor(pattern):
    """sqrt(prod n_m!) converting a monomial coefficient to a Fock amplitude."""
    return math.sqrt(math.prod(math.factorial(pattern.count(m)) for m in set(pattern)))


def single_photon(components):
    """One photon in a superposition of modes: [(Mode, amplitude), ...]."""
    return FockState({(m,): a for m, a in components})


class OpticalElement:
    """Base class: a linear element defined by its single-photon action.

    Subclasses implement ``action(mode) -> list[(Mode, coeff)] | None``;
    None means the element does not touch the mode.
    """

    def action(self, mode):
        raise NotImplementedError

    def apply(self, state):
        out = {}
        for pattern, mono in state.terms.items():
            expansions = []
            for mode in pattern:
                mapped = self.action(mode)
                expansions.append([(mode, 1.0)] if mapped is None else mapped)
            for combo in itertools.product(*expansions):
                modes = tuple(sorted(m for m, _ in combo))
                coeff = mono
                for _, c in combo:
                    coeff *= c
                if abs(coeff) < AMP_CUTOFF:
                    continue
                out[modes] = out.get(modes, 0.0) + coeff
        return FockState(out)


@dataclass(frozen=True)
class PBS(OpticalElement):
    """Polarizing beam splitter: transmits H, reflects V between two arms.

    ``ports[i]`` is the output port of the light transmitted from
    ``arm_pair[i]`` (and reflected from the other arm). By default the
    ports keep the input arms' names, so H stays in its arm while V hops
    to the partner arm. Reflection phases are absorbed into circuit-level
    compensating phases.
    """

    arm_pair: tuple
    ports: tuple = None

    def action(self, mode):
        if mode.arm not in self.arm_pair:
            return None
        ports = self.ports or self.arm_pair
        i = self.arm_pair.index(mode.arm)
        port = ports[i] if mode.pol == H else ports[1 - i]
        return [(Mode(port, mode.rail, mode.pol, mode.tag), 1.0)]


@dataclass(frozen=True)
class BD(OpticalElement):
    """Beam displacer: moves V-polarized light between rails, leaves H alone.

    ``rail_map`` gives the explicit (injective) rail relocation for V; it
    models where the displaced beams physically end up, including dump
    rails that leave the collection path.
    """

    arms: tuple
    rail_map: dict

    def __post_init__(self):
        targets = list(self.rail_map.values())
        if len(set(targets)) != len(targets):
            raise ValueError("BD rail map must be injective")

    def action(self, mode):
        if mode.arm not in self.arms or mode.pol != V:
            return None
        if mode.rail not in self.rail_map:
            return None
        return [(Mode(mode.arm, self.rail_map[mode.rail], V, mode.tag), 1.0)]


@dataclass(frozen=True)
class HWP(OpticalElement):
    """Half-wave plate at angle theta (degrees) on the selected arms/rails.

    H -> cos(2t) H + sin(2t) V,  V -> sin(2t) H - cos(2t) V.
    """

    angle_deg: float
    arms: tuple
    rails: tuple = None

    def action(self, mode):
        if mode.arm not in self.arms:
            return None
        if self.rails is not None and mode.rail not in self.rails:
            return None
        t = math.radians(self.angle_deg)
        c, s = math.cos(2 * t), math.sin(2 * t)
        h = Mode(mode.arm, mode.rail, H, mode.tag)
        v = Mode(mode.arm, mode.rail, V, mode.tag)
        if mode.pol == H:
            return [(h, c), (v, s)]
        return [(h, s), (v, -c)]


def keep(state, accept):
    """The terms of ``state`` whose pattern ``accept`` admits, not renormalized."""
    return FockState({p: a for p, a in state.terms.items() if accept(p)})


def one_photon_per_arm(arms):
    """Predicate: exactly one collected (non-dump) photon in each of ``arms``."""
    return lambda pattern: all(
        sum(1 for m in pattern if m.arm == arm and m.rail >= 0) == 1 for arm in arms
    )


def no_dump_photons(pattern):
    """Predicate: no photon on a dump rail."""
    return all(m.rail >= 0 for m in pattern)


@dataclass(frozen=True)
class VisibilityModel:
    """Pairwise HOM visibilities between photon sources.

    ``default`` applies to every interfering source pair unless an entry
    in ``pairwise`` (keys: frozenset of two distinct names in ``SOURCES``)
    overrides it. Once checked, ``pairwise`` is kept as a read-only copy,
    so a model hashes and compares by value.
    """

    SOURCES = ("p1", "p2", "aux_c", "aux_d")

    default: float = 1.0
    pairwise: Mapping = field(default_factory=dict, hash=False)

    def __post_init__(self):
        for key in self.pairwise:
            if not (isinstance(key, frozenset) and len(key) == 2 and key <= set(self.SOURCES)):
                raise ValueError(f"pairwise key {key!r} is not a pair of sources {self.SOURCES}")
        for v in [self.default, *self.pairwise.values()]:
            if not 0.0 <= v <= 1.0:
                raise ValueError("visibility must lie in [0, 1]")
        object.__setattr__(self, "pairwise", MappingProxyType(dict(self.pairwise)))

    def visibility(self, src_a, src_b):
        if src_a == src_b:
            return 1.0
        return self.pairwise.get(frozenset((src_a, src_b)), self.default)

    def tag_vectors(self):
        """Wavepacket vectors whose Gram matrix realizes sqrt(V) overlaps."""
        sources = self.SOURCES
        n = len(sources)
        gram = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                s = math.sqrt(self.visibility(sources[i], sources[j]))
                gram[i, j] = gram[j, i] = s
        # Robust triangular factorization (Gram may be singular at V = 1):
        # eigen-factor, then rotate lower-triangular via QR so tag 0 is the
        # shared reference component and fully indistinguishable photons
        # carry a single tag.
        w, u = np.linalg.eigh(gram)
        factors = u @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        _, r = np.linalg.qr(factors.T)
        tri = r.T
        signs = np.sign(np.diag(tri))
        signs[signs == 0] = 1.0
        tri = tri * signs[None, :]
        keep = np.abs(tri).max(axis=0) > 1e-12
        tri = tri[:, keep]
        return {src: tri[i] for i, src in enumerate(sources)}


HYBRID = {0: (0, H), 1: (1, V), 2: (2, H)}
HYBRID_LEVEL = {mode: level for level, mode in HYBRID.items()}


def hybrid_photon(arm, amplitudes, tag_vector=None):
    """A photon in the hybrid path-polarization encoding of a qutrit."""
    comps = []
    tag_vector = tag_vector if tag_vector is not None else np.array([1.0])
    for level, amp in enumerate(amplitudes):
        if abs(amp) < AMP_CUTOFF:
            continue
        rail, pol = HYBRID[level]
        for tag, weight in enumerate(tag_vector):
            if abs(weight) < AMP_CUTOFF:
                continue
            comps.append((Mode(arm, rail, pol, tag), amp * weight))
    return single_photon(comps)


def _initial_state(input_state, channel, tags):
    """Photons 1, 2, 3 (and trigger) before the measurement circuit."""
    phi = algebra.check_pure_state(input_state)

    photon1 = hybrid_photon("p1", phi, tags["p1"])
    # Entangled channel: photon 2 interferes, photon 3 never does. Each
    # Schmidt level puts the pair in modes of its own, so no terms overlap.
    chan = {}
    for k, s in enumerate(channel.schmidt_coefficients):
        if s == 0:
            continue
        basis = np.zeros(3)
        basis[k] = 1.0
        pair = hybrid_photon("p2", basis, tags["p2"]).tensor(
            hybrid_photon("p3", basis)
        )
        chan.update(pair.scaled(s).terms)
    return photon1.tensor(FockState(chan)).tensor(single_photon([(Mode("t", 0, H), 1.0)]))


def _aux_pair_state(tags):
    """The auxiliary polarization-entangled pair (|HH> + |VV>)/sqrt2 on c, d.

    The HH and VV terms put the photons in different modes, so none overlap.
    """
    terms = {}
    for pol in (H, V):
        c = single_photon(
            [(Mode("c", 0, pol, t), w) for t, w in enumerate(tags["aux_c"]) if abs(w) > AMP_CUTOFF]
        )
        d = single_photon(
            [(Mode("d", 0, pol, t), w) for t, w in enumerate(tags["aux_d"]) if abs(w) > AMP_CUTOFF]
        )
        terms.update(c.tensor(d).scaled(1 / math.sqrt(2)).terms)
    return FockState(terms)


# --- circuit ----------------------------------------------------------------

# The auxiliary pair (``_aux_pair_state``) enters the circuit where this
# marker stands among a stage's elements; its wavepacket tags depend on the
# run's visibility model.
AUX_PAIR = "AUX_PAIR"

_AB = ("a", "b")
_ABCD = ("a", "b", "c", "d")

# The three-dimensional Bell-measurement circuit as (name, elements, accept)
# stages: the elements act in order, then ``keep`` applies ``accept`` unless
# it is None. The signal photons enter in the path-polarization hybrid
# encoding |0> -> H rail0, |1> -> V rail1, |2> -> H rail2 and leave, after
# the two displacement stages, as {H, V} on rail 0 of arms a and b.
CIRCUIT = (
    # Photon 1 transmits into arm a, photon 2 into arm b.
    ("PBS1", (PBS(("p1", "p2"), ports=_AB),), one_photon_per_arm(_AB)),
    # Re-encode {H0, V1, H2} -> {V0, H0, H1}; under the half-wave sign
    # convention used here the composite is a plain relabeling (all +1).
    ("BD1_BD3", (
        BD(_AB, {1: 0}),
        HWP(45.0, _AB, rails=(0,)),
        HWP(45.0, _AB, rails=(2,)),
        BD(_AB, {2: 1}),
        HWP(45.0, _AB, rails=(1,)),
    ), None),
    ("HWPS", (HWP(22.5, _AB, rails=(0,)),), None),
    # Merge rail 1 into rail 0 as V; pre-existing V0 light is displaced
    # onto the dump rail and removed from the collection path.
    ("BD2_BD4", (HWP(45.0, _AB, rails=(1,)), BD(_AB, {0: DUMP_RAIL, 1: 0})), no_dump_photons),
    ("AUX_PBS", (AUX_PAIR, PBS(("a", "c")), PBS(("b", "d"))), one_photon_per_arm(_ABCD)),
    ("HWP1_4", (HWP(22.5, _ABCD, rails=(0,)),), None),
)

STAGE_NAMES = ("INPUT",) + tuple(name for name, _, _ in CIRCUIT)


def run_circuit(input_state, channel, visibility=None, through_stage="HWP1_4"):
    """Run the measurement circuit up to (and including) the named stage.

    Returns the (sub-normalized) FockState; its squared norm is the
    probability of having survived all post-selections so far.
    """
    if through_stage not in STAGE_NAMES:
        raise ValueError(f"unknown stage {through_stage!r}")
    tags = (visibility or VisibilityModel()).tag_vectors()
    state = _initial_state(input_state, channel, tags)
    for _, elements, accept in CIRCUIT[: STAGE_NAMES.index(through_stage)]:
        for element in elements:
            if element is AUX_PAIR:
                state = state.tensor(_aux_pair_state(tags))
            else:
                state = element.apply(state)
        if accept is not None:
            state = keep(state, accept)
    return state


# Distinct (channel, visibility model) pairs whose Kraus sets stay cached.
KRAUS_CACHE_SIZE = 16


@functools.lru_cache(maxsize=KRAUS_CACHE_SIZE)
def _kraus_set(channel, visibility):
    """The Kraus set of ``run_teleportation``, stacked read-only as (n, 3, 3)."""
    measured_arms = ("a", "b", "c", "d")
    kraus = {}
    for j, basis in enumerate(np.eye(3)):
        # After AUX_PBS post-selects, each mode holds at most one photon, so
        # a final coefficient equals its amplitude. Every pattern holds one
        # collected photon per measured arm and photon 3 untouched in its
        # hybrid encoding; a circuit breaking that raises here.
        for pattern, amp in run_circuit(basis, channel, visibility, "HWP1_4").terms.items():
            meas = {m.arm: m for m in pattern if m.arm in measured_arms}
            (p3,) = [m for m in pattern if m.arm == "p3"]
            level = HYBRID_LEVEL[p3.rail, p3.pol]
            pols = tuple(meas[a].pol for a in measured_arms)
            tags = tuple(meas[a].tag for a in measured_arms)
            k = kraus.setdefault((pols, tags), np.zeros((3, 3), dtype=complex))
            flip = level == 2 and pols.count(V) % 2 == 1
            k[level, j] += -amp if flip else amp
    # Kept per outcome, not reduced to the nine of a minimal set: the
    # reduction leaves 1e-17 residues where rho is exactly zero, and a
    # Poisson draw with a nonzero mean consumes random numbers that a zero
    # mean does not, so every later count drawn from rho would change.
    stack = np.array(list(kraus.values()), dtype=complex).reshape(-1, 3, 3)
    stack.flags.writeable = False
    return stack


def run_teleportation(input_state, channel=None, visibility=None):
    """Full run: returns (rho3, success_probability).

    The post-selected output is linear in photon 1's amplitudes, so the
    circuit is compiled into Kraus operators K, one per outcome: the H/V
    pattern of the four measured photons and their tags, with the
    feed-forward sign flip on level |2> for odd parity. The compile runs
    the Fock circuit once per basis input |j>, and K's column j is what
    that run leaves on photon 3. Compiled sets are cached on its models, at
    most KRAUS_CACHE_SIZE of them, least recently used dropped first. Each
    call returns rho = sum (K phi)(K phi)^+ / p, the tag-traced mixture
    over outcomes, and p = sum |K phi|^2.
    """
    phi = algebra.check_pure_state(input_state)
    channel = channel or ChannelSpec.rebalanced()
    kraus = _kraus_set(channel, visibility or VisibilityModel())
    out = kraus @ phi
    total_prob = float(np.vdot(out, out).real)
    rho = out.T @ out.conj()
    if total_prob > 0:
        rho /= total_prob
    return rho, total_prob


def visibility_damping_factor(model, coherence):
    """Multiplicative damping of one output coherence under partial visibility.

    Derived from the tag trace-out: each coherence is damped by the
    product of wavepacket overlaps of the photons that swap detection
    ports between the two interfering branches. For levels (0,1) that is
    the photon-1/photon-2 overlap squared; (0,2) involves the two
    signal-auxiliary swaps; (1,2) mixes all four sources.
    """
    # each coherence's overlaps sqrt(V) of source pairs, with their powers,
    # multiplied in this order
    factors = {
        (0, 1): [(("p1", "p2"), 2)],
        (0, 2): [(("p1", "aux_c"), 2), (("p2", "aux_d"), 2)],
        (1, 2): [
            (("p2", "aux_c"), 1), (("p1", "aux_c"), 1), (("p1", "aux_d"), 1), (("p2", "aux_d"), 1)
        ],
    }.get(tuple(sorted(coherence)))
    if factors is None:
        raise ValueError(f"unknown coherence pair {coherence}")
    damping = 1.0
    for pair, power in factors:
        damping *= math.sqrt(model.visibility(*pair)) ** power
    return damping


__all__ = [
    "Mode",
    "FockState",
    "OpticalElement",
    "PBS",
    "BD",
    "HWP",
    "keep",
    "one_photon_per_arm",
    "no_dump_photons",
    "VisibilityModel",
    "AUX_PAIR",
    "CIRCUIT",
    "STAGE_NAMES",
    "hybrid_photon",
    "single_photon",
    "run_circuit",
    "run_teleportation",
    "visibility_damping_factor",
]
