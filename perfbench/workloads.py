"""The benchmark's paper workloads.

Each workload regenerates one of the paper's mitigation results at a
reduced scale.  ``setup(repro, seed)`` builds the inputs, the noise or
device model and the engine; it returns a :class:`Unit` whose ``run()`` is
the timed part (first submission to last mitigated distribution) and whose
``finish()`` releases the engine and checks the outputs.

``repro`` is the freshly imported package namespace handed in by ``run.py``
(see ``import_repro``); workloads never import the program themselves, so a
set-up sample always includes the program's own import time.

One operation is one datapoint of one method.  An operation fails when it
raises, when its distribution is not normalised or when its Hellinger
fidelity against the ideal distribution leaves [0, 1].  Each workload also
checks one property of the paper's results that holds on every seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

READOUT_ERRORS = (0.01, 0.06, 0.11, 0.16)
GATE_NOISE = {"p1": 0.001, "p2": 0.01}
# Sizes are chosen so that one repetition takes a few seconds on a loaded
# 2-core host, and a run's median is taken over five or more processes.
VQE_QUBITS = 7
SHOTS = 12000
# Ideal PCS runs a 16-qubit trajectory ensemble (8 payload wires plus one
# ancilla per check); its 24 noise realisations fit one 24 MiB chunk.
PCS_QUBITS = 8
PCS_TRAJECTORIES = 24
QAOA_QUBITS = 6
QAOA_JITTER = 0.1
QAOA_SUBSET_SIZE = 1
# QuTracer may trail the unmitigated global run by a little on the shallow
# device QAOA (Table I, first row); the margin is well below the seed spread.
QAOA_MARGIN = 0.02


@dataclasses.dataclass
class Operation:
    label: str
    distribution: object = None
    error: str | None = None
    fidelity: float | None = None
    mitigated: bool = True


@dataclasses.dataclass
class Unit:
    """One set-up instance of a workload, ready to be timed once."""

    engine: object
    ideal: object
    hellinger: Callable
    body: Callable[[], list[Operation]]
    shape: Callable[[list[Operation]], bool]
    ops: list[Operation] = dataclasses.field(default_factory=list)

    def run(self) -> None:
        self.ops = self.body()

    def finish(self) -> tuple[int, bool]:
        """Close the engine, score every operation; return (failed, shape held)."""
        self.engine.close()
        failed = 0
        for op in self.ops:
            if op.error is None:
                total = op.distribution.total
                fidelity = self.hellinger(op.distribution, self.ideal)
                if abs(total - 1.0) > 1e-6:
                    op.error = f"distribution sums to {total}"
                elif not 0.0 <= fidelity <= 1.0:
                    op.error = f"fidelity {fidelity} outside [0, 1]"
                else:
                    op.fidelity = fidelity
            failed += op.error is not None
        return failed, failed == 0 and self.shape(self.ops)

    def mitigated_fidelities(self) -> list[float]:
        return [op.fidelity for op in self.ops if op.mitigated and op.fidelity is not None]


def _attempt(label: str, mitigated: bool, fn: Callable[[], object]) -> Operation:
    try:
        return Operation(label, fn(), mitigated=mitigated)
    except Exception as exc:  # counted in "failed"; the run goes on
        return Operation(label, error=f"{type(exc).__name__}: {exc}", mitigated=mitigated)


def _fid(ops: list[Operation], label: str) -> float:
    return next(op.fidelity for op in ops if op.label == label)


# ----------------------------------------------------------------------
# vqe_readout_sweep: Fig. 7 without Ideal PCS, one serial engine
# ----------------------------------------------------------------------


def _vqe_setup(repro, seed: int) -> Unit:
    circuit = repro.algorithms.vqe_circuit(VQE_QUBITS, 1, seed=seed)
    noises = [
        repro.noise.NoiseModel.depolarizing(readout=error, **GATE_NOISE)
        for error in READOUT_ERRORS
    ]
    engine = repro.simulators.ExecutionEngine()
    mitigation, core = repro.mitigation, repro.core

    def body() -> list[Operation]:
        ops = []
        for error, noise in zip(READOUT_ERRORS, noises):
            ops.append(_attempt(f"Original@{error}", False, lambda: engine.execute(
                circuit, noise, shots=SHOTS, seed=seed, max_trajectories=200
            ).distribution))
            ops.append(_attempt(f"Jigsaw@{error}", True, lambda: mitigation.run_jigsaw(
                circuit, noise, shots=SHOTS, subset_size=2, seed=seed, engine=engine
            ).mitigated_distribution))
            ops.append(_attempt(f"SQEM@{error}", True, lambda: mitigation.run_sqem(
                circuit, noise, shots=SHOTS, subset_size=1, seed=seed, engine=engine
            ).mitigated_distribution))
            ops.append(_attempt(f"QuTracer@{error}", True, lambda: core.QuTracer(
                noise_model=noise, shots=SHOTS, seed=seed, engine=engine
            ).run(circuit, subset_size=1).mitigated_distribution))
        return ops

    def shape(ops: list[Operation]) -> bool:
        worst = READOUT_ERRORS[-1]
        return _fid(ops, f"QuTracer@{worst}") >= _fid(ops, f"Original@{worst}")

    return Unit(engine, repro.simulators.ideal_distribution(circuit),
                repro.distributions.hellinger_fidelity, body, shape)


# ----------------------------------------------------------------------
# qaoa_device_pool: Table I first row, compiled onto fake mumbai, 2 workers
# ----------------------------------------------------------------------


def _qaoa_setup(repro, seed: int) -> Unit:
    algorithms = repro.algorithms
    # The library's linear-ramp angles for p = 1, perturbed by the seed.  A
    # narrow draw keeps the ideal distribution's shape, and with it the
    # fidelity, comparable across seeds.
    rng = random.Random(seed)
    gammas = [-0.5 + rng.uniform(-QAOA_JITTER, QAOA_JITTER)]
    betas = [0.5 + rng.uniform(-QAOA_JITTER, QAOA_JITTER)]
    circuit = algorithms.qaoa_maxcut_circuit(
        algorithms.ring_graph(QAOA_QUBITS), 1, gammas=gammas, betas=betas
    )
    device = repro.noise.fake_mumbai()
    engine = repro.simulators.ExecutionEngine(workers=2)
    core = repro.core

    def body() -> list[Operation]:
        result = None

        def qutracer():
            nonlocal result
            result = core.QuTracer(
                device=device, compile=True, shots=SHOTS, shots_per_circuit=SHOTS // 10,
                seed=seed, engine=engine,
            ).run(circuit, subset_size=QAOA_SUBSET_SIZE)
            return result.mitigated_distribution

        ops = [_attempt("QuTracer", True, qutracer)]
        if result is None:
            ops.append(Operation("Global", error="QuTracer failed before its global run",
                                 mitigated=False))
        else:
            ops.append(Operation("Global", result.global_distribution, mitigated=False))
        return ops

    def shape(ops: list[Operation]) -> bool:
        return _fid(ops, "QuTracer") >= _fid(ops, "Global") - QAOA_MARGIN

    return Unit(engine, repro.simulators.ideal_distribution(circuit),
                repro.distributions.hellinger_fidelity, body, shape)


# ----------------------------------------------------------------------
# pcs_ensemble_sweep: the Ideal-PCS arm of Fig. 7 / Fig. 9
# ----------------------------------------------------------------------


def _pcs_setup(repro, seed: int) -> Unit:
    circuit = repro.algorithms.vqe_circuit(PCS_QUBITS, 1, seed=seed)
    payload = [inst for inst in circuit.data if not inst.is_measurement]
    entangling = [i for i, inst in enumerate(payload) if inst.is_two_qubit_gate]
    region = (min(entangling), max(entangling) + 1)
    mitigation = repro.mitigation
    checks = [mitigation.PauliCheck(pauli={q: "Z"}, region=region)
              for q in circuit.measured_qubits]
    noises = [
        repro.noise.NoiseModel.depolarizing(readout=error, **GATE_NOISE)
        for error in READOUT_ERRORS
    ]
    engine = repro.simulators.ExecutionEngine()

    def body() -> list[Operation]:
        return [
            _attempt(f"IdealPCS@{error}", True, lambda: mitigation.run_pcs(
                circuit, checks, noise, ideal_checks=True, seed=seed, engine=engine,
                max_trajectories=PCS_TRAJECTORIES,
            ).mitigated_distribution)
            for error, noise in zip(READOUT_ERRORS, noises)
        ]

    def shape(ops: list[Operation]) -> bool:
        fidelities = [op.fidelity for op in ops]
        return all(a > b for a, b in zip(fidelities, fidelities[1:]))

    return Unit(engine, repro.simulators.ideal_distribution(circuit),
                repro.distributions.hellinger_fidelity, body, shape)


WORKLOADS: dict[str, Callable] = {
    "vqe_readout_sweep": _vqe_setup,
    "qaoa_device_pool": _qaoa_setup,
    "pcs_ensemble_sweep": _pcs_setup,
}
