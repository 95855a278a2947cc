"""Per-layer spans recorded from outside the program.

:func:`instrument` wraps the calls into each layer's public functions where
they are called: ``engine`` and ``parallel`` import the density-matrix and
ensemble entry points by name, so the wrapper replaces the name in the
importing module, not only in the defining one.  Only boundaries that fire
at most ~10^4 times per workload run are wrapped, which keeps the traced
run within the untraced run's spread.

A span records its layer, start, end and the span that was open when it
began.  A layer's ``self_s`` is the sum over its spans of the duration
minus the time its child spans cover.  Counters that the program already
keeps are read from it: engine and compilation statistics from the unit's
fresh engine, the process-global kernel dispatch tallies as deltas around
the traced unit.  Everything else is counted at the wrapper.

Worker processes inherit the wrappers when the pool forks, but their spans
never return to the parent, and the kernel dispatch counters are
process-global: on a workload whose engine has a worker pool, the layers
that run inside the workers are reported as not observed (``-1``).
"""

from __future__ import annotations

import collections
import functools
import json
import time
from pathlib import Path

NOT_OBSERVED = -1

# Layers that execute inside pool workers when the engine shards.
WORKER_LAYERS = ("simulators.density_matrix", "simulators.ensemble", "simulators.fusion",
                 "simulators.kernels")

KERNEL_KINDS = ("diag", "perm", "dense1q", "dense2q", "generic")

# (metric name, unit).  The order is the order of the printed report.
PER_LAYER = [
    ("simulators.density_matrix.calls", "count"),
    ("simulators.density_matrix.self_s", "s"),
    ("simulators.engine.requests", "count"),
    ("simulators.engine.executed", "count"),
    ("simulators.engine.cache_hits", "count"),
    ("simulators.engine.dedup_hits", "count"),
    ("simulators.engine.state_cache_hits", "count"),
    ("simulators.engine.hit_ratio", "ratio"),
    ("simulators.engine.self_s", "s"),
    ("simulators.engine.retries", "count"),
    ("simulators.engine.failed", "count"),
    ("core.qspc.calls", "count"),
    ("core.qspc.circuits", "count"),
    ("core.qspc.self_s", "s"),
    ("core.tracer.self_s", "s"),
    ("core.analysis.self_s", "s"),
    ("core.optimizations.self_s", "s"),
    ("cutting.wire_cut.self_s", "s"),
    ("distributions.bayesian.self_s", "s"),
    ("mitigation.jigsaw.self_s", "s"),
    ("mitigation.sqem.self_s", "s"),
    ("mitigation.pcs.self_s", "s"),
    ("transpiler.compilation.calls", "count"),
    ("transpiler.compilation.hits", "count"),
    ("transpiler.compilation.misses", "count"),
    ("transpiler.compilation.hit_ratio", "ratio"),
    ("transpiler.compilation.self_s", "s"),
    ("transpiler.layout.self_s", "s"),
    ("simulators.parallel.tasks", "count"),
    ("simulators.parallel.wait_s", "s"),
    ("simulators.parallel.respawns", "count"),
    ("simulators.ensemble.calls", "count"),
    ("simulators.ensemble.trajectories", "count"),
    ("simulators.ensemble.self_s", "s"),
    ("simulators.fusion.calls", "count"),
    ("simulators.fusion.blocks", "count"),
    ("simulators.fusion.self_s", "s"),
    *[(f"simulators.kernels.dispatch_{kind}", "count") for kind in KERNEL_KINDS],
    ("simulators.kernels.computed_bytes", "B"),
    ("distributions.probability.sample_calls", "count"),
    ("distributions.probability.sample_s", "s"),
    ("noise.device.self_s", "s"),
    ("trace_overhead", "ratio"),
]


class SpanRecorder:
    """In-memory span list plus wrapper-side counters for one traced unit."""

    def __init__(self, repro) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._dispatch = repro.simulators.kernels.kernel_dispatch_counts

    def wrap(self, layer: str, fn, after=None, bytes_per_dispatch=None):
        """``fn`` wrapped in a ``layer`` span, or only counted if ``layer`` is None.

        ``after(result, *args, **kwargs)`` updates counters once the call
        returns.  ``bytes_per_dispatch(*args, **kwargs)`` (kernel-calling
        layers) turns the dispatches made during the call into computed
        bytes: each dispatch reads and writes every amplitude once.
        """

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self._dispatch() if bytes_per_dispatch else None
            result = fn(*args, **kwargs)
            if before is not None:
                dispatched = sum(self._dispatch().values()) - sum(before.values())
                self.counts["simulators.kernels.computed_bytes"] += (
                    dispatched * bytes_per_dispatch(*args, **kwargs)
                )
            if after is not None:
                after(result, *args, **kwargs)
            return result

        if layer is None:
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = counted(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, self.spans[index][3])
            self.counts[f"{layer}.calls"] += 1
            return result

        return wrapper

    def patch(self, owner, name: str, layer: str, **hooks) -> None:
        setattr(owner, name, self.wrap(layer, getattr(owner, name), **hooks))

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = collections.defaultdict(float)
        for (layer, start, end, _), covered in zip(self.spans, child):
            totals[layer] += end - start - covered
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (start/end relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (layer, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "layer": layer, "parent": parent,
                                         "start": start - origin, "end": end - origin}) + "\n")


def instrument(repro) -> SpanRecorder:
    """Patch every layer boundary of the freshly imported ``repro`` package."""
    rec = SpanRecorder(repro)
    sim, core, transpiler = repro.simulators, repro.core, repro.transpiler
    counts = rec.counts

    def dm_bytes(circuit, *args, **kwargs):
        return 4**circuit.num_qubits * 16 * 2

    for module in (sim.engine, sim.parallel):
        rec.patch(module, "noisy_distribution_density_matrix", "simulators.density_matrix",
                  bytes_per_dispatch=dm_bytes)
    rec.patch(sim.parallel, "simulate_trajectories_ensemble", "simulators.ensemble")

    # The ensemble evolves its trajectories in chunks, one _evolve_ensemble
    # call each; a chunk's dispatches move only that chunk's states.
    def chunk_bytes(program, batch, num_qubits, *args, **kwargs):
        return batch * 2**num_qubits * 16 * 2

    def chunk_done(result, program, batch, *args, **kwargs):
        counts["simulators.ensemble.trajectories"] += batch

    rec.patch(sim.ensemble, "_evolve_ensemble", None, after=chunk_done,
              bytes_per_dispatch=chunk_bytes)

    def fused(program, *args, **kwargs):
        counts["simulators.fusion.blocks"] += len(program.operations)

    for module in (sim.fusion, sim.density_matrix, sim.ensemble):
        rec.patch(module, "fuse_circuit", "simulators.fusion", after=fused)

    for name in ("execute", "execute_many"):
        rec.patch(sim.ExecutionEngine, name, "simulators.engine")
    rec.patch(sim.parallel.ParallelSharder, "run", "simulators.parallel")

    def qspc_done(result, *args, **kwargs):
        counts["core.qspc.circuits"] += result.num_circuits

    rec.patch(core.tracer, "virtual_pauli_check", "core.qspc", after=qspc_done)
    for name in ("run", "trace_subset"):
        rec.patch(core.QuTracer, name, "core.tracer")
    rec.patch(core.tracer, "analyse_subset", "core.analysis")
    for name in ("false_dependency_removal", "apply_local_unitary",
                 "conjugate_observables_through"):
        rec.patch(core.tracer, name, "core.optimizations")
    for name in ("decompose_in_preparation_basis", "decompose_in_pauli_basis",
                 "reconstruct_density_matrix", "project_to_physical_state"):
        rec.patch(core.qspc, name, "cutting.wire_cut")
    rec.patch(core.tracer, "iterative_bayesian_update", "distributions.bayesian")
    rec.patch(repro.mitigation.jigsaw, "iterative_bayesian_update", "distributions.bayesian")
    for name, layer in (("run_jigsaw", "mitigation.jigsaw"), ("run_sqem", "mitigation.sqem"),
                        ("run_pcs", "mitigation.pcs")):
        rec.patch(repro.mitigation, name, layer)

    rec.patch(transpiler.compilation.CompilationCache, "get_or_compile",
              "transpiler.compilation")
    rec.patch(transpiler.passes, "noise_aware_layout", "transpiler.layout")
    rec.patch(repro.distributions.ProbabilityDistribution, "sample",
              "distributions.probability")
    for name in ("noise_model", "noise_model_for_assignment", "fingerprint"):
        rec.patch(repro.noise.DeviceModel, name, "noise.device")
    return rec


def layer_metrics(rec: SpanRecorder, engine_stats: dict, dispatch: dict[str, int],
                  pooled: bool) -> dict[str, float]:
    """Per-layer values of one traced unit (``trace_overhead`` is added by the caller)."""
    self_s = rec.self_seconds()
    counts = rec.counts
    stats = engine_stats
    compiles = stats["compile_hits"] + stats["compile_misses"]
    values = {
        "simulators.density_matrix.calls": counts["simulators.density_matrix.calls"],
        "simulators.density_matrix.self_s": self_s["simulators.density_matrix"],
        "simulators.engine.requests": stats["requests"],
        "simulators.engine.executed": stats["executed"],
        "simulators.engine.cache_hits": stats["cache_hits"],
        "simulators.engine.dedup_hits": stats["batch_dedup_hits"],
        "simulators.engine.state_cache_hits": stats["state_cache_hits"],
        "simulators.engine.hit_ratio": stats["hit_rate"],
        "simulators.engine.self_s": self_s["simulators.engine"],
        "simulators.engine.retries": stats["retries"],
        "simulators.engine.failed": stats["isolated_failures"],
        "core.qspc.calls": counts["core.qspc.calls"],
        "core.qspc.circuits": counts["core.qspc.circuits"],
        "transpiler.compilation.calls": counts["transpiler.compilation.calls"],
        "transpiler.compilation.hits": stats["compile_hits"],
        "transpiler.compilation.misses": stats["compile_misses"],
        "transpiler.compilation.hit_ratio": stats["compile_hits"] / compiles if compiles else 0.0,
        "simulators.parallel.tasks": stats["parallel_executed"],
        "simulators.parallel.wait_s": self_s["simulators.parallel"],
        "simulators.parallel.respawns": stats["pool_respawns"],
        "simulators.ensemble.calls": counts["simulators.ensemble.calls"],
        "simulators.ensemble.trajectories": counts["simulators.ensemble.trajectories"],
        "simulators.fusion.calls": counts["simulators.fusion.calls"],
        "simulators.fusion.blocks": counts["simulators.fusion.blocks"],
        "simulators.kernels.computed_bytes": counts["simulators.kernels.computed_bytes"],
        "distributions.probability.sample_calls": counts["distributions.probability.calls"],
        "distributions.probability.sample_s": self_s["distributions.probability"],
    }
    for kind in KERNEL_KINDS:
        values[f"simulators.kernels.dispatch_{kind}"] = dispatch[kind]
    for layer in ("core.qspc", "core.tracer", "core.analysis", "core.optimizations",
                  "cutting.wire_cut", "distributions.bayesian", "mitigation.jigsaw",
                  "mitigation.sqem", "mitigation.pcs", "transpiler.compilation",
                  "transpiler.layout", "simulators.ensemble", "simulators.fusion",
                  "noise.device"):
        values[f"{layer}.self_s"] = self_s[layer]
    if pooled:
        for name in values:
            if name.startswith(WORKER_LAYERS):
                values[name] = NOT_OBSERVED
    return values
