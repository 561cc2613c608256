"""clogsim benchmark: seed-run turnaround, traced per module from outside.

    python3 benchmarks/run.py --workload s1-deposition --seed 7 --seconds 45 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, so the benchmark measures the checkout it sits in.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with nothing wrapped; with ``--trace 1`` they are the per-layer
ones from a traced run.  The line before it is a JSON record of the
environment and of every seed run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import types
from pathlib import Path
from time import perf_counter

# One BLAS thread unless the caller chose otherwise: the baseline is a plain
# single-threaded run, and on a small shared machine a second BLAS thread
# made the 32^3 solves both slower and far noisier.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"

# Set-ups are timed in passes of three, before the first unit and after
# each one, so setup_s (their median) samples the machine across the run.
SETUPS_PER_PASS = 3
DAY = 86400.0
EXPECTED_STOPS = {"degenerate": 3, "flow-stopped": 0}   # stop reason -> CLI exit code
# Criterion 6 checks flatness at 3 sigma once per 20-seed batch.  This check
# runs on every benchmark run, where a 3 sigma limit over 11 membranes would
# fail about one run in a hundred by chance; 5 sigma keeps false alarms
# below one in a million runs and still catches a profile that has tilted.
FLAT_SIGMAS = 5.0

# network-degrade: S1's geometry on a 32^3 lattice of 5e-5 m cells, so the
# ten CG work arrays (256 KiB each) exceed one core's 2 MiB L2.
NETWORK_CELLS = 32
NETWORK_CELL_SIZE = 5e-5
NETWORK_WINDOW = ((11, 22), (11, 22))
CLOSE_FRACTION = 0.05      # share of the still-open facets of each family closed per round


# --- loading ---------------------------------------------------------------

def load_clogsim() -> types.SimpleNamespace:
    """Import clogsim afresh from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "clogsim" or m.startswith("clogsim.")]:
        del sys.modules[name]
    cli = importlib.import_module("clogsim.cli")
    pkg = sys.modules["clogsim"]
    if Path(pkg.__file__).resolve().parent != SRC / "clogsim":
        raise RuntimeError(f"imported clogsim from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cli=cli, engine=sys.modules["clogsim.engine"],
        hydraulics=sys.modules["clogsim.hydraulics"],
        model=sys.modules["clogsim.model"], sediment=sys.modules["clogsim.sediment"])


# --- one seed run ----------------------------------------------------------

@dataclasses.dataclass
class Unit:
    """One seed run: a CLI simulation, or one network-degrade sweep."""
    seed: int
    wall_s: float | None = None
    steps: int = 0
    digest: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)
    data: dict = dataclasses.field(default_factory=dict)
    layers: dict | None = None


def _read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class Scenario:
    """A shipped scenario config run through ``clogsim.cli.main(["simulate", ...])``.

    ``bands(config, units)`` checks the mean over a run's distinct seeds.
    """

    def __init__(self, config_name: str, bands):
        self.config_path = CONFIGS / config_name
        self.bands = bands

    def setup(self, pkg):
        config = pkg.cli.parse_config(self.config_path)
        pkg.engine.initialize(config)
        return config

    def run(self, pkg, config, unit: Unit, out: Path) -> None:
        argv = ["simulate", "--config", str(self.config_path), "--seed", str(unit.seed),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = pkg.cli.main(argv)
            unit.wall_s = perf_counter() - start
        summary = _read_summary(out / "summary.txt")
        reason = summary.get("stop_reason")
        if reason not in EXPECTED_STOPS:
            unit.problems.append(f"stop reason {reason!r} not in {sorted(EXPECTED_STOPS)}")
        elif code != EXPECTED_STOPS[reason]:
            unit.problems.append(f"exit code {code} for stop reason {reason!r}")
        facets = config.n_x * config.n_y
        single = bool(np.all(config.multiplicities() == 1))
        rows = (out / "contamination.csv").read_text().splitlines()[1:]
        catches = []
        for row in rows:
            k, caught, open_, blocked, sealed = (int(v) for v in row.split(","))
            if open_ + blocked + sealed != facets:
                unit.problems.append(
                    f"membrane {k}: open + blocked + sealed = {open_ + blocked + sealed} "
                    f"!= {facets} facets")
            if single and caught != blocked:
                unit.problems.append(f"membrane {k}: {caught} catches != {blocked} blocked")
            catches.append(caught)
        if len(catches) != config.n_z - 1:
            unit.problems.append(f"{len(catches)} membranes in contamination.csv")
        unit.steps = int(summary["steps"])
        unit.digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        unit.data = {"days": float(summary["sim_time_s"]) / DAY,
                     "blocked": int(summary["blocked_facets"]),
                     "sealed": int(summary["sealed_facets"]),
                     "catches": catches}


def s1_bands(config, units: list[Unit]) -> list[str]:
    """Criterion 6's S1 ranges, on the mean over this run's seeds."""
    days = statistics.fmean(u.data["days"] for u in units)
    blocked = statistics.fmean(u.data["blocked"] for u in units)
    sealed = statistics.fmean(u.data["sealed"] for u in units)
    problems = []
    if not 1.5 <= days <= 6.0:
        problems.append(f"mean stop {days:.3f} d outside 1.5..6")
    if not 135 <= blocked <= 540:
        problems.append(f"mean blocked {blocked:.1f} outside 135..540")
    if not 5100 <= sealed <= 7600:
        problems.append(f"mean sealed {sealed:.1f} outside 5100..7600")
    return problems


def s3_bands(config, units: list[Unit]) -> list[str]:
    """Criterion 6's S3 checks: share of apertures caught, flat catch profile."""
    m = config.n_z - 1
    caught = statistics.fmean(sum(u.data["catches"]) for u in units) / (config.n_x * config.n_y * m)
    pooled = np.sum([u.data["catches"] for u in units], axis=0)
    total = float(pooled.sum())
    sigma = math.sqrt(total * (1 / m) * (1 - 1 / m))
    spread = float(np.max(np.abs(pooled - total / m))) / sigma if sigma > 0 else math.inf
    problems = []
    if caught < 0.70:
        problems.append(f"caught fraction {caught:.3f} < 0.70")
    if spread > FLAT_SIGMAS:
        problems.append(f"pooled catches {spread:.2f} sigma from flat (> {FLAT_SIGMAS})")
    return problems


class NetworkDegrade:
    """The hydraulics API alone: re-solve as random facet closures pile up."""

    def setup(self, pkg):
        base = pkg.cli.parse_config(CONFIGS / "scenario1.cfg")
        length = NETWORK_CELLS * NETWORK_CELL_SIZE
        config = dataclasses.replace(
            base, n_x=NETWORK_CELLS, n_y=NETWORK_CELLS, n_z=NETWORK_CELLS,
            L_x=length, L_y=length, L_z=length,
            inlet_window=NETWORK_WINDOW, outlet_window=NETWORK_WINDOW)
        grid = pkg.model.build_grid(config)
        p_out = config.p_grad * config.L_z
        tol = 1e-6 * pkg.hydraulics.reference_cell_flow(grid, 0.0, p_out)
        return config, p_out, tol

    @staticmethod
    def closure_schedule(grid, seed: int) -> list[tuple[np.ndarray, ...]]:
        """Per round, the flat indices of the z, x and y facets it closes."""
        rng = np.random.default_rng(seed)
        orders = [rng.permutation(st.size) for st in (grid.z_state, grid.x_state, grid.y_state)]
        done = [0, 0, 0]
        rounds = []
        while any(d < o.size for d, o in zip(done, orders)):
            picks = []
            for f, order in enumerate(orders):
                k = math.ceil(CLOSE_FRACTION * (order.size - done[f]))
                picks.append(order[done[f]:done[f] + k])
                done[f] += k
            rounds.append(tuple(picks))
        return rounds

    @staticmethod
    def bands(ctx, units: list[Unit]) -> list[str]:
        return []

    def run(self, pkg, ctx, unit: Unit, out: Path) -> None:
        config, p_out, tol = ctx
        h = pkg.hydraulics
        grid = pkg.model.build_grid(config)
        states = (grid.z_state, grid.x_state, grid.y_state)
        sealed = int(pkg.model.ApertureState.SEDIMENT_SEALED)
        schedule = self.closure_schedule(grid, unit.seed)
        history = []
        pressure = None
        disconnected = False
        start = perf_counter()
        for picks in schedule:
            for state, idx in zip(states, picks):
                np.put(state, idx, sealed)
            try:
                field = h.solve_pressures(grid, 0.0, p_out, tol, sweep="cg", initial=pressure)
            except h.DegenerateNetworkError:
                disconnected = True
                break
            pressure = field.pressure
            flows = h.flows_from_pressures(grid, field)
            history.append((field.iterations, field.residual,
                            h.total_flow(grid, flows), h.outlet_flow(grid, flows)))
        unit.wall_s = perf_counter() - start
        unit.steps = len(history)

        # per-cell residuals are each <= tol, so the sum over the lattice
        # bounds both the inlet/outlet mismatch and any spurious rise
        slack = grid.n_x * grid.n_y * grid.n_z * tol
        if not disconnected:
            unit.problems.append("closures never disconnected the network")
        if not history:
            unit.problems.append("network disconnected before the first solve")
        previous = math.inf
        for rnd, (_, residual, total, outlet) in enumerate(history, start=1):
            if residual > tol:
                unit.problems.append(f"round {rnd}: residual {residual:.3e} > tol {tol:.3e}")
            if abs(total - outlet) > slack:
                unit.problems.append(
                    f"round {rnd}: inlet flow {total:.6e} != outlet flow {outlet:.6e}")
            if total > previous + slack:
                unit.problems.append(f"round {rnd}: flow rose from {previous:.6e} to {total:.6e}")
            if not total > 0:
                unit.problems.append(f"round {rnd}: flow {total!r} not positive")
            previous = total
        digest = hashlib.sha256()
        for row in history:
            digest.update(repr(row).encode())
        if pressure is not None:
            digest.update(pressure.tobytes())
        unit.digest = digest.hexdigest()


WORKLOADS = {
    "s1-deposition": Scenario("scenario1.cfg", s1_bands),
    "s3-capture": Scenario("scenario3.cfg", s3_bands),
    "network-degrade": NetworkDegrade(),
}


def attempt(workload, pkg, ctx, seed: int, work: Path) -> Unit:
    """Run one seed; an exception is recorded as a failure of that run."""
    unit = Unit(seed)
    out = Path(tempfile.mkdtemp(prefix=f"seed_{seed}_", dir=work))
    try:
        workload.run(pkg, ctx, unit, out)
    except Exception:
        unit.problems.append(traceback.format_exc(limit=4).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return unit


# --- tracing ---------------------------------------------------------------

def install_spans(tracer: Tracer, pkg, obs: dict) -> None:
    """Wrap the public functions each layer exposes, where their callers look them up."""
    cli, engine, hyd = pkg.cli, pkg.engine, pkg.hydraulics

    def on_solve(args, kwargs, field):
        tol = kwargs.get("tol", args[3] if len(args) > 3 else None)
        obs["iterations"].append(field.iterations)
        obs["residual_over_tol"].append(field.residual / tol)

    def on_wall(args, kwargs, c1):
        obs["apertures"] += int(np.size(c1))

    def on_run(args, kwargs, trace):
        obs["captures"] += trace.final_counts()["catches"]

    def on_write(args, kwargs, paths):
        obs["artifact_bytes"] += sum(p.stat().st_size for p in paths.out_dir.iterdir())

    tracer.wrap(cli, "parse_config", "cli.parse_config")
    tracer.wrap(cli, "write_run_artifacts", "cli.write_artifacts", on_write)
    tracer.wrap(cli, "run", "engine.run", on_run)
    tracer.wrap(engine, "step", "engine.step", keep_durations=True)
    for owner in (engine, hyd):
        tracer.wrap(owner, "solve_pressures", "hydraulics.solve", on_solve)
        tracer.wrap(owner, "flows_from_pressures", "hydraulics.flows")
        tracer.wrap(owner, "total_flow", "hydraulics.flows")
    tracer.wrap(hyd, "outlet_flow", "hydraulics.flows")
    tracer.wrap(hyd, "check_connected", "hydraulics.check_connected")
    tracer.wrap(engine, "wall_concentration_profile", "sediment.wall_concentration", on_wall)
    tracer.wrap(engine, "growth_rate", "sediment.growth_rate")
    tracer.wrap(engine, "axial_depletion", "sediment.depletion")
    for name in ("pass_probability", "step_blocking_probability", "layer_concentrations"):
        tracer.wrap(engine, name, "engine.capture")
    tracer.wrap(pkg.model.CellGrid, "membrane_state_counts", "model.state_counts")
    tracer.wrap(engine, "build_grid", "model.build_grid")
    tracer.wrap(pkg.model, "build_grid", "model.build_grid")


def traced_attempt(workload, pkg, ctx, seed: int, work: Path) -> Unit:
    """One seed run with every span installed; the originals come back after."""
    tracer = Tracer()
    obs = {"iterations": [], "residual_over_tol": [], "apertures": 0, "captures": 0,
           "artifact_bytes": 0}
    install_spans(tracer, pkg, obs)
    try:
        unit = attempt(workload, pkg, ctx, seed, work)
    finally:
        tracer.restore()
    unit.layers = layer_metrics(tracer, obs)
    return unit


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, obs: dict) -> dict[str, float]:
    span = tracer.get
    solve, check = span("hydraulics.solve"), span("hydraulics.check_connected")
    wall, step = span("sediment.wall_concentration"), span("engine.step")
    iters = obs["iterations"]
    total_iters = sum(iters)
    return {
        "hydraulics.solve_s": solve.total_s,
        "hydraulics.solve_calls": solve.calls,
        "hydraulics.us_per_cg_iter":
            (solve.total_s - check.total_s) / total_iters * 1e6 if total_iters else 0.0,
        "hydraulics.cg_iters_mean": statistics.fmean(iters) if iters else 0.0,
        "hydraulics.cg_iters_p90": _percentile(iters, 90),
        "hydraulics.check_connected_s": check.total_s,
        "hydraulics.check_connected_calls": check.calls,
        "hydraulics.flows_s": span("hydraulics.flows").total_s,
        "hydraulics.residual_over_tol_max": max(obs["residual_over_tol"], default=0.0),
        "hydraulics.convergence_errors": solve.errors.get("ConvergenceError", 0),
        "sediment.wall_concentration_s": wall.total_s,
        "sediment.wall_concentration_calls": wall.calls,
        "sediment.apertures_solved": obs["apertures"],
        "sediment.ns_per_aperture":
            wall.total_s / obs["apertures"] * 1e9 if obs["apertures"] else 0.0,
        "sediment.growth_rate_s": span("sediment.growth_rate").total_s,
        "sediment.depletion_s": span("sediment.depletion").total_s,
        "engine.steps": step.calls - sum(step.errors.values()),
        "engine.captures": obs["captures"],
        "engine.step_ms_p50": _percentile(step.durations, 50) * 1e3,
        "engine.step_ms_p99": _percentile(step.durations, 99) * 1e3,
        "engine.capture_s": span("engine.capture").total_s,
        "engine.self_s": step.self_s,
        "model.state_counts_s": span("model.state_counts").total_s,
        "model.build_grid_s": span("model.build_grid").total_s,
        "cli.parse_config_s": span("cli.parse_config").total_s,
        "cli.write_artifacts_s": span("cli.write_artifacts").total_s,
        "cli.artifact_bytes": obs["artifact_bytes"],
    }


# Counts that must repeat exactly when a seed is run again.
COUNT_METRICS = ("engine.steps", "engine.captures", "hydraulics.solve_calls",
                 "hydraulics.check_connected_calls", "hydraulics.cg_iters_mean",
                 "hydraulics.cg_iters_p90", "hydraulics.convergence_errors",
                 "sediment.wall_concentration_calls", "sediment.apertures_solved",
                 "cli.artifact_bytes")


# --- environment -----------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read(index / "size")
    return sizes


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    maps = _read(Path("/proc/self/maps")) or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if commit is None:
            packed = _read(ROOT / ".git" / "packed-refs") or ""
            commit = next((line.split()[0] for line in packed.splitlines()
                           if line.endswith(" " + ref)), "unknown")
        return commit
    return head


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _read(Path("/proc/self/status")) or ""
    threads = next((int(line.split()[1]) for line in status.splitlines()
                    if line.startswith("Threads:")), None)
    source = hashlib.sha256()
    for path in sorted((SRC / "clogsim").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# --- driver ----------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]
    seeds = random.Random(seed)

    def next_seed() -> int:
        return seeds.randrange(1, 2**31 - 1)

    setup_times = []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            start = perf_counter()
            pkg = load_clogsim()
            ctx = workload.setup(pkg)
            setup_times.append(perf_counter() - start)
        return pkg, ctx

    pkg, ctx = set_up()

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}_", dir=WORK))
    try:
        if trace:
            # the same seed untraced, then traced twice: the traced pair gives
            # the layer numbers and the determinism check, the untraced run
            # the tracing overhead
            first = next_seed()
            units = [attempt(workload, pkg, ctx, first, work)]
            units += [traced_attempt(workload, pkg, ctx, first, work) for _ in range(2)]
            distinct = units[:1]
        else:
            units = []
            start = perf_counter()
            while not units or perf_counter() - start < seconds:
                units.append(attempt(workload, pkg, ctx, next_seed(), work))
                pkg, ctx = set_up()
            distinct = units
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    # batch checks: physics bands over distinct seeds, determinism over repeats
    if not any(u.problems for u in distinct):
        for problem in workload.bands(ctx, distinct):
            for u in distinct:
                u.problems.append(problem)
    by_seed: dict[int, list[Unit]] = {}
    for u in units:
        by_seed.setdefault(u.seed, []).append(u)
    for runs in by_seed.values():
        if len({u.digest for u in runs}) > 1:
            for u in runs:
                u.problems.append("same seed gave different outputs")
        counted = [u.layers for u in runs if u.layers is not None]
        for name in COUNT_METRICS:
            if len({layers[name] for layers in counted}) > 1:
                for u in runs:
                    u.problems.append(f"same seed gave different {name}")

    timed = [u for u in units if u.wall_s]
    walls = [u.wall_s for u in timed]
    if trace:
        traced = [u for u in units if u.layers is not None]
        metrics = {}
        for name in traced[0].layers:
            values = [u.layers[name] for u in traced]
            metrics[name] = values[0] if name in COUNT_METRICS else statistics.fmean(values)
        base = units[0].wall_s
        traced_walls = [u.wall_s for u in traced if u.wall_s]
        metrics["trace.overhead_pct"] = (
            (statistics.fmean(traced_walls) - base) / base * 100.0
            if base and traced_walls else 0.0)
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "run_s": _median(walls),
            # steps over wall, summed over the units: a seed's step count
            # varies far more than its wall time, and the sum averages it out
            "steps_per_s": sum(u.steps for u in timed) / sum(u.wall_s for u in timed)
            if timed else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "setup_s": setup_times,
        "fail_rate": sum(1 for u in units if u.problems) / len(units),
        "runs": [{"seed": u.seed, "wall_s": u.wall_s, "steps": u.steps, "digest": u.digest,
                  "problems": u.problems} for u in units],
    }
    return metrics, record


UNITS = {
    "setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
    "trace.overhead_pct": "%", "engine.step_ms_p50": "ms", "engine.step_ms_p99": "ms",
    "hydraulics.us_per_cg_iter": "us", "sediment.ns_per_aperture": "ns",
    "hydraulics.cg_iters_mean": "count", "hydraulics.cg_iters_p90": "count",
    "hydraulics.residual_over_tol_max": "ratio", "cli.artifact_bytes": "B",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "clogsim" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no clogsim checkout around {Path(__file__).parent}: "
              f"need src/clogsim and configs/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(1 for run in record["runs"] if run["problems"])
    for run in record["runs"]:
        for problem in run["problems"]:
            print(f"seed {run['seed']}: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(record["runs"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
