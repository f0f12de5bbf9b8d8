"""Stochastic error insertion — the paper's Section III realised as a hook.

After every executed gate, for every qubit the gate touched, three error
mechanisms are applied in a fixed order:

1. **depolarization**: with probability ``p`` replace the qubit's Pauli
   frame by a uniformly random one of I, X, Y, Z (Example 3) — the I branch
   is a no-op and skipped;
2. **amplitude damping**: per the model's ``damping_mode`` — either the
   first-order *event* semantics (fire with the state-dependent probability
   ``p * P(1)``, leave the state untouched otherwise; the default, and the
   behaviour the paper's runtime tables imply) or the *exact* two-Kraus
   unravelling of Example 6 (no-decay branch applies the
   ``diag(1, sqrt(1-p))`` tilt; unbiased but DD-hostile — see
   :class:`~repro.noise.model.NoiseModel`);
3. **phase flip**: with probability ``p`` apply Z.

The mechanism order matters only at second order in the rates and is kept
identical in the density-matrix oracle.

The same module builds the channel factory for the oracle; with
``damping_mode="exact"`` the stochastic trajectories average to *precisely*
the channels the oracle applies.  With ``"event"`` the no-fire branch skips
the true channel's ``sqrt(1-p)`` amplitude damping, so averages on
superposition observables deviate at first order in the damping rate (see
:class:`~repro.noise.model.NoiseModel` for the full discussion).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np

from ..simulators.base import StateBackend
from .channels import (
    DEPOLARIZING_PAULIS,
    amplitude_damping_kraus,
    depolarizing_kraus,
    phase_flip_kraus,
)
from .model import NoiseModel

__all__ = [
    "StochasticErrorApplier",
    "exact_channel_factory",
    "MECHANISMS",
    "NoiseSite",
    "build_noise_site",
    "dry_run_site",
    "firing_draws",
]

#: The mechanisms in the applier's draw order (per qubit the first three,
#: then crosstalk per adjacent pair); each name is its ``fired`` tally key.
MECHANISMS = ("depolarizing", "amplitude_damping", "phase_flip", "crosstalk")
DEPOLARIZING, DAMPING, PHASE_FLIP, CROSSTALK = range(len(MECHANISMS))

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_DECAY = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _noise_ops(backend):
    """The backend's cached noise-operator DDs, or ``None`` (dense paths)."""
    return getattr(backend, "noise_ops", None)


class StochasticErrorApplier:
    """Applies sampled errors to a backend after each gate.

    Instances are callables with the :data:`~repro.simulators.base.ErrorHook`
    signature, so they plug directly into
    :func:`~repro.simulators.base.execute_circuit`.
    """

    def __init__(self, model: NoiseModel, rng: random.Random) -> None:
        self.model = model
        self.rng = rng
        #: Statistics: how many errors of each kind actually fired.
        self.fired = {"depolarizing": 0, "amplitude_damping": 0, "phase_flip": 0}
        # Damping Kraus pairs are cached per rate (they are tiny, but the
        # cache keeps the hot path allocation-free).
        self._damping_cache: dict = {}

    def __call__(
        self,
        backend: StateBackend,
        qubits: Tuple[int, ...],
        gate_name: str,
        first_qubit: int = 0,
        first_pair: int = 0,
    ) -> None:
        """Draw the slot's mechanisms: per qubit from ``qubits[first_qubit]``
        on, then crosstalk from adjacent pair ``first_pair`` on (a slot
        resumed after its first error starts past the draws it took)."""
        if not self.model.noisy_measure and gate_name in ("measure", "reset"):
            return
        for qubit in qubits[first_qubit:] if first_qubit else qubits:
            rates = self.model.rates_for(gate_name, qubit)
            if rates.is_noiseless:
                continue
            self._apply_depolarizing(backend, qubit, rates.depolarizing)
            self._apply_damping(backend, qubit, rates.amplitude_damping)
            self._apply_phase_flip(backend, qubit, rates.phase_flip)
        if len(qubits) > first_pair + 1:
            for pair in zip(qubits[first_pair:], qubits[first_pair + 1:]):
                self._apply_crosstalk(backend, pair, gate_name)

    def apply_first_error(
        self,
        backend: StateBackend,
        qubits: Tuple[int, ...],
        gate_name: str,
        index: int,
        mechanism: int,
        branch: int,
    ) -> None:
        """Apply a slot whose first state-changing draw is already known.

        ``mechanism`` (an index into :data:`MECHANISMS`) fired on
        ``qubits[index]``, or on the adjacent pair ``index`` for crosstalk,
        and took ``branch`` (the Pauli index, 1-3 for depolarization and
        1-15 for a crosstalk pair; unused otherwise).  The slot's later
        draws come from the rng exactly as :meth:`__call__` takes them.
        A damping first error is event-mode decay: under ``"exact"`` a
        plan with a damping slot is never stratified.
        """
        name = MECHANISMS[mechanism]
        self.fired[name] = self.fired.get(name, 0) + 1
        if mechanism == CROSSTALK:
            self._apply_pauli_pair(backend, qubits[index : index + 2], branch)
            self(backend, qubits, gate_name, len(qubits), index + 1)
            return
        qubit = qubits[index]
        rates = self.model.rates_for(gate_name, qubit)
        if mechanism == DEPOLARIZING:
            self._apply_pauli(backend, branch, qubit)
            self._apply_damping(backend, qubit, rates.amplitude_damping)
        elif mechanism == DAMPING:
            self._decay(backend, qubit)
        if mechanism == PHASE_FLIP:
            self._apply_pauli(backend, 3, qubit)
        else:
            self._apply_phase_flip(backend, qubit, rates.phase_flip)
        self(backend, qubits, gate_name, index + 1)

    def before_measure(self, backend: StateBackend, qubit: int) -> None:
        """Readout error: flip the qubit with the slot's ``readout`` rate.

        Called by the executor immediately before a measurement — the
        standard misassignment model (extension beyond the paper's three
        mechanisms).
        """
        rates = self.model.rates_for("measure", qubit)
        if rates.readout <= 0.0 or self.rng.random() >= rates.readout:
            return
        self.fired["readout"] = self.fired.get("readout", 0) + 1
        ops = _noise_ops(backend)
        if ops is not None:
            backend.apply_gate_edge(ops.single_qubit("pauli1", _X, qubit))
        else:
            backend.apply_gate(_X, qubit, {})

    # ------------------------------------------------------------------
    # The three mechanisms
    # ------------------------------------------------------------------

    def _apply_depolarizing(self, backend: StateBackend, qubit: int, p: float) -> None:
        if p <= 0.0 or self.rng.random() >= p:
            return
        pauli_index = self.rng.randrange(4)
        self.fired["depolarizing"] += 1
        if pauli_index == 0:
            return  # the I branch of Example 3 — physically a no-op
        self._apply_pauli(backend, pauli_index, qubit)

    def _apply_pauli(self, backend: StateBackend, pauli_index: int, qubit: int) -> None:
        """Apply a Pauli through the backend's operator cache when it has one."""
        ops = _noise_ops(backend)
        if ops is not None:
            backend.apply_gate_edge(
                ops.single_qubit(f"pauli{pauli_index}", DEPOLARIZING_PAULIS[pauli_index], qubit)
            )
        else:
            backend.apply_gate(DEPOLARIZING_PAULIS[pauli_index], qubit, {})

    def _apply_damping(self, backend: StateBackend, qubit: int, p: float) -> None:
        if p <= 0.0:
            return
        if self.model.damping_mode == "event":
            self._apply_damping_event(backend, qubit, p)
            return
        kraus = self._damping_cache.get(p)
        if kraus is None:
            kraus = amplitude_damping_kraus(p)
            self._damping_cache[p] = kraus
        ops = _noise_ops(backend)
        if ops is not None:
            edges = ops.kraus_pair(f"damping:{p!r}", kraus, qubit)
            chosen = backend.apply_kraus_edges(edges, self.rng)
        else:
            chosen = backend.apply_kraus_branch(kraus, qubit, self.rng)
        if chosen == 1:  # the decay branch actually fired
            self.fired["amplitude_damping"] += 1

    def _apply_damping_event(self, backend: StateBackend, qubit: int, p: float) -> None:
        """T1 error event: decay fires with the state-dependent probability
        ``p * P(qubit = 1)`` (the same firing probability as the exact
        unravelling); the no-decay branch leaves the state untouched.

        The untouched no-fire branch is what keeps decision diagrams on the
        ideal trajectory between rare error events — the property the
        paper's Table I runtimes depend on — at the cost of an O(p)-per-slot
        bias on superposition observables (see NoiseModel.damping_mode).
        """
        p_one = backend.probability_of_one(qubit)
        if p_one <= 0.0 or self.rng.random() >= p * p_one:
            return
        self.fired["amplitude_damping"] += 1
        self._decay(backend, qubit)

    def _decay(self, backend: StateBackend, qubit: int) -> None:
        """Apply the decay operator and renormalise: |1> -> |0> on this
        qubit, with the register state conditioned accordingly."""
        ops = _noise_ops(backend)
        if ops is not None:
            backend.apply_kraus_edges(ops.kraus_pair("decay", (_DECAY,), qubit), self.rng)
        else:
            backend.apply_kraus_branch([_DECAY], qubit, self.rng)

    def _apply_phase_flip(self, backend: StateBackend, qubit: int, p: float) -> None:
        if p <= 0.0 or self.rng.random() >= p:
            return
        self.fired["phase_flip"] += 1
        self._apply_pauli(backend, 3, qubit)

    def _apply_crosstalk(
        self, backend: StateBackend, pair: Tuple[int, int], gate_name: str
    ) -> None:
        """Correlated two-qubit depolarization (crosstalk extension).

        With probability ``p`` a uniformly random two-qubit Pauli (one of
        the 16 products, I (x) I included) replaces the pair's frame —
        the two-qubit analogue of paper Example 3.  The rate resolves on
        the pair's second (target-side) qubit.
        """
        p = self.model.rates_for(gate_name, pair[1]).crosstalk
        if p <= 0.0 or self.rng.random() >= p:
            return
        self.fired["crosstalk"] = self.fired.get("crosstalk", 0) + 1
        self._apply_pauli_pair(backend, pair, self.rng.randrange(16))

    def _apply_pauli_pair(
        self, backend: StateBackend, pair: Tuple[int, int], index: int
    ) -> None:
        """Apply two-qubit Pauli ``index`` (``4 * P_first + P_second``)."""
        if index // 4:
            self._apply_pauli(backend, index // 4, pair[0])
        if index % 4:
            self._apply_pauli(backend, index % 4, pair[1])


# ----------------------------------------------------------------------
# RNG dry-run (the prefix-sharing engine's first-error-site computation)
# ----------------------------------------------------------------------
#
# ``dry_run_site`` MUST consume the trajectory rng *exactly* as
# ``StochasticErrorApplier`` does along the ideal (error-free) prefix: same
# draws, same order, same short-circuits, same ``fired`` tallies.  Any edit
# to the applier's draw structure above must be mirrored here — the
# equivalence gate in tests/stochastic/test_prefix_sharing.py pins the two
# paths bit-identically and will catch a desync.  ``firing_draws`` lists the
# same draws in closed form for stratified sampling; the chi-square gates
# in tests/stochastic/test_strata.py tie it to ``dry_run_site``.


class NoiseSite:
    """Precomputed draw descriptor for one error-insertion slot.

    ``qubit_draws`` holds ``(depolarizing_p, damping_p, ideal_p_one,
    phase_flip_p)`` per touched qubit; ``ideal_p_one`` is the noiseless
    state's P(qubit = 1) *at this slot* (captured during the instrumented
    ideal execution), which is valid during a dry-run precisely because any
    state-changing event ends the dry-run immediately.  ``crosstalk`` holds
    one rate per adjacent qubit pair.
    """

    __slots__ = ("qubit_draws", "crosstalk")

    def __init__(
        self,
        qubit_draws: Tuple[Tuple[float, float, float, float], ...],
        crosstalk: Tuple[float, ...],
    ) -> None:
        self.qubit_draws = qubit_draws
        self.crosstalk = crosstalk


def build_noise_site(
    model: NoiseModel, gate_name: str, qubits: Tuple[int, ...], ideal_p_one
) -> NoiseSite:
    """Capture one slot's rates (and ideal P(1) values) for later dry-runs.

    ``ideal_p_one`` is a callable ``qubit -> float`` evaluated against the
    ideal state directly after the slot's gate — only consulted for qubits
    with a non-zero damping rate in ``"event"`` mode, matching the lazy
    ``probability_of_one`` read in :meth:`StochasticErrorApplier._apply_damping_event`.
    """
    event_mode = model.damping_mode == "event"
    draws = []
    for qubit in qubits:
        rates = model.rates_for(gate_name, qubit)
        damping = rates.amplitude_damping
        p_one = 0.0
        if damping > 0.0 and event_mode:
            p_one = ideal_p_one(qubit)
        draws.append((rates.depolarizing, damping, p_one, rates.phase_flip))
    crosstalk: Tuple[float, ...] = ()
    if len(qubits) >= 2:
        crosstalk = tuple(
            model.rates_for(gate_name, pair[1]).crosstalk
            for pair in zip(qubits, qubits[1:])
        )
    return NoiseSite(tuple(draws), crosstalk)


def firing_draws(site: NoiseSite) -> List[Tuple[int, int, float]]:
    """The slot's state-changing draws in the applier's order.

    One ``(index, mechanism, probability)`` per draw that leaves the ideal
    prefix when it fires: ``index`` is the qubit's position in the gate's
    qubits (crosstalk: the adjacent pair's), ``mechanism`` indexes
    :data:`MECHANISMS`, and ``probability`` is the chance it fires and
    changes the state.  Depolarization's identity branch leaves the state
    alone, so it fires with ``3/4 p``; crosstalk's ``I (x) I`` likewise,
    so ``15/16 p``; event-mode damping fires with ``p * P_ideal(1)``.
    Draws that cannot fire are left out.  Under ``"exact"`` a damping slot
    leaves the prefix unconditionally instead (no clean stratum exists),
    so the list describes exact-mode slots only when they have no damping.
    """
    draws = []
    for index, (dep_p, damp_p, p_one, phase_p) in enumerate(site.qubit_draws):
        if dep_p > 0.0:
            draws.append((index, DEPOLARIZING, 0.75 * dep_p))
        if damp_p * p_one > 0.0:
            draws.append((index, DAMPING, damp_p * p_one))
        if phase_p > 0.0:
            draws.append((index, PHASE_FLIP, phase_p))
    for index, crosstalk_p in enumerate(site.crosstalk):
        if crosstalk_p > 0.0:
            draws.append((index, CROSSTALK, 0.9375 * crosstalk_p))
    return draws


def dry_run_site(rng: random.Random, fired: dict, site: NoiseSite, exact_damping: bool) -> bool:
    """Consume one slot's draws; True when the state leaves the ideal prefix.

    No-op events (the depolarizing/crosstalk identity branches, unfired
    mechanisms) tally into ``fired`` and continue; the first state-changing
    event returns immediately — before the extra draws its application
    would consume — so the caller replays it from a checkpoint with the
    real applier.  In ``exact`` damping mode any slot with a non-zero
    damping rate diverges unconditionally: the no-decay Kraus branch tilts
    the state, so even "no event" leaves the ideal prefix.
    """
    for dep_p, damp_p, p_one, phase_p in site.qubit_draws:
        if dep_p > 0.0 and rng.random() < dep_p:
            pauli_index = rng.randrange(4)
            fired["depolarizing"] += 1
            if pauli_index:
                return True
        if damp_p > 0.0:
            if exact_damping:
                return True
            if p_one > 0.0 and rng.random() < damp_p * p_one:
                fired["amplitude_damping"] += 1
                return True
        if phase_p > 0.0 and rng.random() < phase_p:
            fired["phase_flip"] += 1
            return True
    for crosstalk_p in site.crosstalk:
        if crosstalk_p > 0.0 and rng.random() < crosstalk_p:
            fired["crosstalk"] = fired.get("crosstalk", 0) + 1
            index = rng.randrange(16)
            if index:
                return True
    return False


def exact_channel_factory(model: NoiseModel):
    """Channel factory for the density-matrix oracle matching the stochastic
    semantics of :class:`StochasticErrorApplier` exactly (same mechanisms,
    same order).

    Returns a callable ``(gate_name, qubit) -> [kraus_list, ...]`` suitable
    for :meth:`~repro.simulators.density_matrix.DensityMatrixSimulator.run_circuit`.
    """

    def factory(gate_name: str, qubit: int) -> List[Sequence[np.ndarray]]:
        if gate_name == "readout":
            # Pre-measurement readout bit flip (extension; the oracle asks
            # for this slot explicitly before dephasing a measured qubit).
            rates = model.rates_for("measure", qubit)
            if rates.readout > 0.0:
                p = rates.readout
                return [[math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * _X]]
            return []
        if not model.noisy_measure and gate_name in ("measure", "reset"):
            return []
        rates = model.rates_for(gate_name, qubit)
        channels: List[Sequence[np.ndarray]] = []
        if rates.depolarizing > 0.0:
            channels.append(depolarizing_kraus(rates.depolarizing))
        if rates.amplitude_damping > 0.0:
            channels.append(amplitude_damping_kraus(rates.amplitude_damping))
        if rates.phase_flip > 0.0:
            channels.append(phase_flip_kraus(rates.phase_flip))
        return channels

    return factory
