"""Paper-workload benchmark for the QuTracer reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vqe_readout_sweep --seed 1 --seconds 40 --trace 0

The seed drives the VQE parameters, the QAOA angles and the simulation
seed.  A run repeats the workload until another round as long as the
longest so far would pass ``--seconds``, and reports medians.  Each
repetition is a fresh process that imports ``repro``, sets the workload up
and runs it once: the speed of the memory-bound simulator kernels depends
on a process's heap layout (it moved by up to 2x between processes in
which every repetition agreed within a few per cent), so only repetitions
in separate processes sample it.

``--trace 0`` prints the end-to-end metrics; each round is one repetition
plus ``SETUP_SAMPLES_PER_ROUND`` processes that only set up, so that the
set-up samples spread over the run like the repetitions do.  ``--trace 1``
runs an untraced and a traced repetition per round and prints the
per-layer metrics (see ``spans.py``), with ``trace_overhead`` = traced over
untraced ``run_s``.
The last line of standard output is the JSON result; the lines before it
give the machine facts and every metric by name and unit.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy is first imported
# (repetition processes inherit it): the default two-thread OpenBLAS makes
# run times wander on a two-core machine, and with a two-worker pool it
# would run four threads on two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES_PER_ROUND = 2
REPETITION_TIMEOUT_S = 150
SUBPACKAGES = ("algorithms", "core", "distributions", "mitigation", "noise", "simulators",
               "transpiler")

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mitigated_fidelity", "fidelity"),
]


def import_repro():
    for sub in SUBPACKAGES:
        importlib.import_module(f"repro.{sub}")
    return sys.modules["repro"]


def status_kib(pid, field: str) -> int:
    """A ``VmHWM``/``RssAnon``-style field of ``/proc/<pid>/status``, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


class PoolMemory:
    """Peak memory of the engine's pool workers beyond what they inherited.

    Fork copies the page tables of anonymous memory only, so a forked
    worker's resident set starts at the parent's anonymous resident pages;
    each worker counts its ``VmHWM`` minus the parent's ``RssAnon`` just
    before the batch that started the pool.  ``VmHWM`` is read while the
    workers are alive, so every worker counts, not only the largest reaped
    one.
    """

    def __init__(self, sharder_cls) -> None:
        self.fork_rss_kib: int | None = None
        run = sharder_cls.run

        def tracked_run(sharder, *args, **kwargs):
            before = status_kib("self", "RssAnon") if self.fork_rss_kib is None else None
            try:
                return run(sharder, *args, **kwargs)
            finally:
                if before is not None and multiprocessing.active_children():
                    self.fork_rss_kib = before

        sharder_cls.run = tracked_run

    def workers_kib(self) -> int:
        if self.fork_rss_kib is None:
            return 0
        return sum(max(0, status_kib(proc.pid, "VmHWM") - self.fork_rss_kib)
                   for proc in multiprocessing.active_children())


# ----------------------------------------------------------------------
# One repetition (runs in its own process)
# ----------------------------------------------------------------------


def repetition(workload: str, seed: int, mode: str) -> dict:
    """Set up once and, unless ``mode`` is ``"setup"``, run and check once."""
    import networkx  # noqa: F401  (third-party imports stay out of set-up time)
    import numpy  # noqa: F401

    import workloads

    start = time.perf_counter()
    repro = import_repro()
    unit = workloads.WORKLOADS[workload](repro, seed)
    out = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        unit.engine.close()
        return out
    pool = PoolMemory(repro.simulators.parallel.ParallelSharder)
    if mode == "trace":
        import spans

        recorder = spans.instrument(repro)
        before = repro.simulators.kernels.kernel_dispatch_counts()
    start = time.perf_counter()
    unit.run()
    out["run_s"] = time.perf_counter() - start
    # Peak of this process plus every pool worker's own peak (ru_maxrss is
    # in KiB); the peaks may fall at different moments, so this is an upper
    # bound on the memory the run held at once.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool.workers_kib()
    if mode == "trace":
        after = repro.simulators.kernels.kernel_dispatch_counts()
        dispatch = {kind: after[kind] - before[kind] for kind in spans.KERNEL_KINDS}
        out["layers"] = spans.layer_metrics(recorder, unit.engine.stats.to_dict(), dispatch,
                                            pooled=(unit.engine.workers or 1) > 1)
        recorder.dump(HERE / "traces" / f"{workload}-seed{seed}.jsonl")
    failed, out["shape_held"] = unit.finish()
    out.update(
        attempted=len(unit.ops),
        failed=failed,
        errors=[f"{op.label}: {op.error}" for op in unit.ops if op.error is not None],
        fidelities=unit.mitigated_fidelities(),
        peak_rss_mb=peak_kib / 1024,
    )
    return out


# ----------------------------------------------------------------------
# The run: repetitions until --seconds, then medians
# ----------------------------------------------------------------------


def machine_facts(repro) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "kernel_backend": repro.simulators.kernels.resolve_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition process to completion and return its result.

    The repetition gets its own process group, so that a timeout also
    stops the pool workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--rep", mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{mode} repetition of {workload} exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    modes = ("run", "trace") if trace else ("run",) + ("setup",) * SETUP_SAMPLES_PER_ROUND
    samples: list[dict] = []
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        samples.extend(spawn(workload, seed, mode) for mode in modes)
        longest = max(longest, time.perf_counter() - round_start)
        if time.perf_counter() - start + longest > seconds:
            break
    reps = [sample for sample in samples if "run_s" in sample]
    plain = [rep for rep in reps if "layers" not in rep]
    print("run_s per repetition: " + " ".join(f"{rep['run_s']:.3f}" for rep in plain))
    if trace:
        traced = [rep for rep in reps if "layers" in rep]
        layers = [rep["layers"] for rep in traced]
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace_overhead"] = (statistics.median(rep["run_s"] for rep in traced)
                                    / statistics.median(rep["run_s"] for rep in plain))
        return values, reps
    fidelities = [f for rep in reps for f in rep["fidelities"]]
    return {
        "run_s": statistics.median(rep["run_s"] for rep in reps),
        "setup_s": statistics.median(sample["setup_s"] for sample in samples),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "mitigated_fidelity": statistics.fmean(fidelities) if fidelities else 0.0,
    }, reps


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", choices=("setup", "run", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The run's untimed first import writes .pyc files so that every timed
    # set-up reads them, whatever PYTHONDONTWRITEBYTECODE says: compiling
    # the sources is a cold-cache cost, not set-up.  They go to a cache
    # inside the checkout, so the benchmark writes nothing outside it.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(HERE / "pycache")
    if args.rep:
        print(json.dumps(repetition(args.workload, args.seed, args.rep)))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    print("machine: " + json.dumps(machine_facts(import_repro()), sort_keys=True))
    values, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        import spans

        units = dict(spans.PER_LAYER)
    else:
        units = dict(END_TO_END)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    shape_held = all(rep["shape_held"] for rep in reps)
    for rep in reps:
        for error in rep["errors"]:
            print(f"failed: {error}")
    print(f"workload: {args.workload} seed={args.seed} repetitions={len(reps)} "
          f"attempted={attempted} failed={failed} "
          f"paper_shape={'held' if shape_held else 'BROKEN'}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0 and shape_held,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
