"""Command line front end.

Subcommands: ``simulate`` runs one or more seeds of a configured filter
and writes run artifacts, ``design`` prints aperture-sizing schedules,
``calibrate`` turns a measured deposit growth rate into a rate constant,
``estimate`` prints closed-form lifetime numbers for a configuration.

Config files are plain ``key = value`` lines, ``#`` comments allowed.
Floats are echoed back via repr so a round trip through
``format_config`` and the parser is bit exact.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .design import (LayerSchedule, equal_contamination_schedule, lifetime_estimates,
                     quantile_penetration_forms, quantile_schedule, uniform_schedule)
from .engine import SimulationTrace, run
from .model import ApertureState, Chemistry, FilterConfig
from .sediment import CalibrationInfeasibleError, calibrate_rate_constant

_STATE_CHARS = {int(state): char for state, char in zip(ApertureState, ".#o")}
_STATE_NAMES = {int(state): state.name.lower().replace("_", "-") for state in ApertureState}


def _int(label: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{label} expects an integer, got {value!r}") from None


def _real(unit: str):
    def parse(label: str, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"{label} expects a number ({unit}), got {value!r}") from None
    return parse


def _listed(parse_one):
    """Parse a comma-separated list; a single item stays a scalar."""
    def parse(label: str, value: str):
        vals = [parse_one(label, p.strip()) for p in value.split(",")]
        return vals[0] if len(vals) == 1 else tuple(vals)
    return parse


def _listed_text(format_one):
    return lambda value: (format_one(value) if np.isscalar(value)
                          else ", ".join(format_one(v) for v in value))


def _word_or(word: str, meaning, parse_other):
    """Parse ``word`` (any case) as ``meaning``, anything else with ``parse_other``."""
    return lambda label, value: meaning if value.lower() == word else parse_other(label, value)


def _parse_window(label: str, value: str):
    if value.lower() == "full":
        return None
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ValueError(
            f"{label} expects 'full' or 'a..b, c..d' (1-based cells), got {value!r}")
    spans = []
    for part in parts:
        lo, sep, hi = part.partition("..")
        if not sep:
            raise ValueError(f"{label} expects spans like '6..14', got {part!r}")
        spans.append((_int(label, lo.strip()), _int(label, hi.strip())))
    return tuple(spans)


def _format_window(window) -> str:
    if window is None:
        return "full"
    return ", ".join(f"{lo}..{hi}" for lo, hi in window)


def _text(label: str, value: str) -> str:
    return value   # FilterConfig.validate checks the allowed words


class _Key(NamedTuple):
    key: str      # name in the config file
    field: str    # FilterConfig field; Chemistry field for the chemistry.* keys
    parse: Callable[[str, str], object]   # (label for errors, text) -> value
    format: Callable[[object], str]
    echo: str     # format_config writes the key _ALWAYS, _WITH_CHEMISTRY or when _NOT_DEFAULT

    @property
    def chemical(self) -> bool:
        return self.key.startswith("chemistry.")


_ALWAYS, _WITH_CHEMISTRY, _NOT_DEFAULT = "always", "with chemistry", "not default"
_SCHEMA = [_Key(*row) for row in (   # every config key, in echo order
    ("L_x", "L_x", _real("m"), repr, _ALWAYS),
    ("L_y", "L_y", _real("m"), repr, _ALWAYS),
    ("L_z", "L_z", _real("m"), repr, _ALWAYS),
    ("n_x", "n_x", _int, str, _ALWAYS),
    ("n_y", "n_y", _int, str, _ALWAYS),
    ("n_z", "n_z", _int, str, _ALWAYS),
    ("p_grad", "p_grad", _real("Pa/m"), repr, _ALWAYS),
    ("mu", "mu", _real("Pa s"), repr, _ALWAYS),
    ("l_particle", "l_particle", _real("m"), repr, _ALWAYS),
    ("N_particles", "N_particles", _real("m^-3"), repr, _ALWAYS),
    ("r_filter", "r_filter", _listed(_real("m")), _listed_text(lambda r: repr(float(r))),
     _ALWAYS),
    ("r_side", "r_side", _real("m"), repr, _ALWAYS),
    ("inlet_window", "inlet_window", _parse_window, _format_window, _ALWAYS),
    ("outlet_window", "outlet_window", _parse_window, _format_window, _ALWAYS),
    ("chemistry.K", "rate_constant", _real("concentration units"), repr, _WITH_CHEMISTRY),
    ("chemistry.n", "reaction_order", _int, str, _WITH_CHEMISTRY),
    ("chemistry.D", "diffusivity", _real("m^2/s"), repr, _WITH_CHEMISTRY),
    ("chemistry.mu2", "sediment_molar_mass", _real("kg/mol"), repr, _WITH_CHEMISTRY),
    ("chemistry.n2", "sediment_stoichiometry", _int, str, _WITH_CHEMISTRY),
    ("chemistry.rho2", "sediment_density", _real("kg/m^3"), repr, _WITH_CHEMISTRY),
    ("chemistry.mu0", "solute_molar_mass", _real("kg/mol"), repr, _WITH_CHEMISTRY),
    ("c0_entrance", "c0_entrance", _real("m^-3"), repr, _WITH_CHEMISTRY),
    ("dt", "dt", _word_or("adaptive", "adaptive", _real("s")),
     lambda dt: "adaptive" if isinstance(dt, str) else repr(float(dt)), _ALWAYS),
    ("time_limit", "time_limit", _word_or("none", None, _real("s")),
     lambda limit: "none" if limit is None else repr(float(limit)), _ALWAYS),
    ("blocking_law", "blocking_law", _text, str, _ALWAYS),
    ("seed", "seed", _int, str, _ALWAYS),
    ("flow_stop_fraction", "flow_stop_fraction", _real("1"), repr, _ALWAYS),
    ("seal_fraction", "seal_fraction", _real("1"), repr, _ALWAYS),
    ("depletion_threshold", "depletion_threshold", _real("1"), repr, _ALWAYS),
    ("solver_tol", "solver_tol", _real("m^3/s"), repr, _NOT_DEFAULT),
    ("solver_max_iter", "solver_max_iter", _int, str, _NOT_DEFAULT),
    ("aperture_multiplicity", "aperture_multiplicity", _listed(_int),
     _listed_text(lambda m: str(int(m))), _NOT_DEFAULT),
)]
_SCHEMA_BY_KEY = {row.key: row for row in _SCHEMA}
_CHEMISTRY_KEYS = {f"chemistry.{row.field}": row.key for row in _SCHEMA if row.chemical}
_DEFAULTS = {f.name: f.default for f in fields(FilterConfig)}


def parse_config_text(text: str) -> FilterConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val

    kwargs, chem_vals = {}, {}
    for row in _SCHEMA:
        if row.key in values:
            target = chem_vals if row.chemical else kwargs
            target[row.field] = row.parse(f"config key {row.key!r}", values.pop(row.key))
    if chem_vals:
        missing = [row.key for row in _SCHEMA if row.chemical and row.field not in chem_vals]
        if missing:
            raise ValueError(f"incomplete chemistry block, missing {', '.join(sorted(missing))}")
        try:
            kwargs["chemistry"] = Chemistry(**chem_vals)
        except ValueError as err:
            # the message starts "chemistry.<field>"; name the key the file wrote
            name, rest = str(err).split(" ", 1)
            raise ValueError(f"{_CHEMISTRY_KEYS.get(name, name)} {rest}") from None

    if values:
        raise ValueError(f"unknown config keys: {', '.join(sorted(values))}")
    missing = [name for name, default in _DEFAULTS.items()
               if default is MISSING and name not in kwargs]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    config = FilterConfig(**kwargs)
    config.validate()
    return config


def parse_config(path: str | Path) -> FilterConfig:
    return parse_config_text(Path(path).read_text())


def format_config(config: FilterConfig) -> str:
    """Echo a config as parseable text; floats via repr, so round trips are exact."""
    lines = ["# clogsim filter configuration"]
    for row in _SCHEMA:
        if row.echo == _WITH_CHEMISTRY and config.chemistry is None:
            continue
        value = getattr(config.chemistry if row.chemical else config, row.field)
        if row.echo == _NOT_DEFAULT:
            default = _DEFAULTS[row.field]
            if value is None if default is None else value == default:
                continue
        lines.append(f"{row.key} = {row.format(value)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunArtifacts:
    out_dir: Path
    config_echo: Path
    trace: Path
    membrane_maps_txt: Path
    membrane_maps_csv: Path
    contamination: Path
    summary: Path


def _membrane_maps_text(grid) -> str:
    lines = []
    for k in range(grid.n_membranes):
        lines.append(f"membrane {k + 1}")
        layer = grid.z_state[:, :, k]
        for j in range(grid.n_y):
            lines.append("".join(_STATE_CHARS[int(layer[i, j])] for i in range(grid.n_x)))
        lines.append("")
    return "\n".join(lines)


def _membrane_maps_csv(grid) -> str:
    lines = ["membrane,i,j,state,initial_radius_m,radius_m,open_count"]
    for k, j, i in itertools.product(range(grid.n_membranes), range(grid.n_y), range(grid.n_x)):
        lines.append(
            f"{k + 1},{i + 1},{j + 1},{_STATE_NAMES[int(grid.z_state[i, j, k])]},"
            f"{float(grid.z_radius0[i, j, k])!r},{float(grid.z_radius[i, j, k])!r},"
            f"{int(grid.z_open_count[i, j, k])}")
    return "\n".join(lines) + "\n"


def _contamination_csv(trace: SimulationTrace) -> str:
    last = trace.snapshots[-1]
    lines = ["membrane,catches,open,blocked,sealed"]
    for k in range(trace.n_membranes):
        lines.append(f"{k + 1},{last.catches[k]},{last.open[k]},{last.blocked[k]},{last.sealed[k]}")
    return "\n".join(lines) + "\n"


def _summary_text(config: FilterConfig, trace: SimulationTrace) -> str:
    first, last = trace.snapshots[0], trace.snapshots[-1]
    counts = trace.final_counts()
    steps = sum(1 for s in trace.snapshots if s.dt > 0)
    lines = [
        f"stop_reason = {trace.stop_reason}",
        f"seed = {config.seed}",
        f"steps = {steps}",
        f"sim_time_s = {last.time!r}",
        f"clean_flow_m3_s = {first.total_flow!r}",
        f"final_flow_m3_s = {last.total_flow!r}",
        f"total_catches = {counts['catches']}",
        f"open_facets = {counts['open']}",
        f"blocked_facets = {counts['blocked']}",
        f"sealed_facets = {counts['sealed']}",
        f"depletion_warned = {int(any(s.depletion_warning for s in trace.snapshots))}",
    ]
    return "\n".join(lines) + "\n"


def write_run_artifacts(config: FilterConfig, trace: SimulationTrace,
                        out_dir: str | Path) -> RunArtifacts:
    if trace.final_grid is None:
        raise ValueError("trace carries no final grid; run() the simulation first")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = RunArtifacts(
        out_dir=out,
        config_echo=out / "config_echo.cfg",
        trace=out / "trace.csv",
        membrane_maps_txt=out / "membrane_maps.txt",
        membrane_maps_csv=out / "membrane_maps.csv",
        contamination=out / "contamination.csv",
        summary=out / "summary.txt",
    )
    paths.config_echo.write_text(format_config(config))
    paths.trace.write_text(trace.to_csv())
    paths.membrane_maps_txt.write_text(_membrane_maps_text(trace.final_grid))
    paths.membrane_maps_csv.write_text(_membrane_maps_csv(trace.final_grid))
    paths.contamination.write_text(_contamination_csv(trace))
    paths.summary.write_text(_summary_text(config, trace))
    return paths


def _parse_seed_spec(spec: str) -> range:
    """The seeds of ``--seed``: one integer, or an inclusive range ``lo..hi``,
    as a range, so that no list of its seeds is built before the first run."""
    lo, sep, hi = spec.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if sep else start
    except ValueError:
        raise ValueError(f"--seed expects an integer or a range like 1..20, "
                         f"got {spec!r}") from None
    if stop < start:
        raise ValueError(f"seed range {spec!r} is empty")
    return range(start, stop + 1)


def _cmd_simulate(args) -> int:
    config = parse_config(args.config)
    for key in ("time_limit", "dt", "blocking_law"):
        text = getattr(args, key)
        if text is not None:
            flag = "--" + key.replace("_", "-")
            config = replace(config, **{key: _SCHEMA_BY_KEY[key].parse(flag, text)})
    if args.no_chemistry:
        config = replace(config, chemistry=None)
    seeds = (_parse_seed_spec(args.seed) if args.seed is not None
             else range(config.seed, config.seed + 1))
    # slicing, not len(): a range longer than sys.maxsize has no len()
    many = bool(seeds[1:])
    out_base = Path(args.out)
    degenerate = failed = False
    for seed in seeds:
        run_config = replace(config, seed=seed)
        try:
            trace = run(run_config)
        except RuntimeError as exc:   # a stalled solve, or the step limit
            print(f"error: seed {seed}: {exc}", file=sys.stderr)
            failed = True
            continue
        out_dir = out_base / f"seed_{seed}" if many else out_base
        write_run_artifacts(run_config, trace, out_dir)
        counts = trace.final_counts()
        print(f"seed {seed}: {trace.stop_reason} at t = {trace.duration:.6g} s, "
              f"catches = {counts['catches']}, blocked = {counts['blocked']}, "
              f"sealed = {counts['sealed']} -> {out_dir}")
        degenerate = degenerate or trace.stop_reason == "degenerate"
    return 4 if failed else 3 if degenerate else 0


def _schedule_text(schedule: LayerSchedule, extra: list[str] | None = None) -> str:
    lines = [f"kind = {schedule.kind}", f"membranes = {schedule.membranes}",
             f"penetration = {schedule.penetration()!r}"]
    if extra:
        lines += extra
    header = "k,catch_probability" + (",radius_m" if schedule.radii is not None else "")
    lines.append(header)
    for idx, c in enumerate(schedule.catch_probabilities):
        row = f"{idx + 1},{c!r}"
        if schedule.radii is not None:
            row += f",{schedule.radii[idx]!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _cmd_design(args) -> int:
    extra = None
    if args.kind == "equal-contamination":
        if args.membranes is None or args.first_catch is None:
            raise ValueError("equal-contamination design needs --membranes and --first-catch")
        schedule = equal_contamination_schedule(args.first_catch, args.membranes,
                                                rod_length=args.rod_length)
    elif args.kind == "quantile":
        if args.layers is None:
            raise ValueError("quantile design needs --layers")
        schedule = quantile_schedule(args.layers, rod_length=args.rod_length)
        product, shortcut = quantile_penetration_forms(args.layers)
        extra = [f"penetration_product = {product!r}",
                 f"penetration_shortcut = {shortcut!r}"]
    else:
        if args.membranes is None or args.catch is None:
            raise ValueError("uniform design needs --membranes and --catch")
        schedule = uniform_schedule(args.catch, args.membranes, rod_length=args.rod_length)
    text = _schedule_text(schedule, extra)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_calibrate(args) -> int:
    result = calibrate_rate_constant(
        args.growth, args.mass_concentration,
        solute_molar_mass=args.solute_molar_mass,
        sediment_molar_mass=args.sediment_molar_mass,
        sediment_density=args.sediment_density,
        diffusivity=args.diffusivity,
        radius=args.radius,
        reaction_order=args.reaction_order,
        sediment_stoichiometry=args.stoichiometry,
    )
    print(f"rate_constant = {result.rate_constant!r}")
    print(f"entrance_concentration_m3 = {result.entrance_concentration!r}")
    print(f"wall_concentration_m3 = {result.wall_concentration!r}")
    return 0


def _cmd_estimate(args) -> int:
    config = parse_config(args.config)
    est = lifetime_estimates(config)
    print(f"aperture_flow_m3_s = {est.aperture_flow!r}")
    print(f"total_flow_m3_s = {est.total_flow!r}")
    print(f"particle_exposure_s_m3 = {est.particle_exposure!r}")
    print(f"lifetime_s = {est.lifetime!r}")
    print(f"capacity_particles = {est.capacity!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clogsim",
        description="Layered porous filter clogging: simulate, design, calibrate, estimate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the stochastic clogging simulation")
    p_sim.add_argument("--config", required=True, help="path to a key = value config file")
    p_sim.add_argument("--seed", help="seed, or inclusive range like 1..20 (one run each)")
    p_sim.add_argument("--out", default="runs", help="artifact directory (default: runs)")
    p_sim.add_argument("--time-limit", help="override: seconds, or 'none'")
    p_sim.add_argument("--dt", help="override: seconds, or 'adaptive'")
    p_sim.add_argument("--blocking-law", choices=("simple", "corrected"))
    p_sim.add_argument("--no-chemistry", action="store_true",
                       help="disable deposition, keep particle capture")
    p_sim.set_defaults(func=_cmd_simulate)

    p_des = sub.add_parser("design", help="print an aperture sizing schedule")
    p_des.add_argument("--kind", required=True,
                       choices=("equal-contamination", "quantile", "uniform"))
    p_des.add_argument("--membranes", type=int, help="membrane count (equal/uniform kinds)")
    p_des.add_argument("--layers", type=int, help="cell layer count (quantile kind)")
    p_des.add_argument("--first-catch", type=float, help="membrane 1 catch probability")
    p_des.add_argument("--catch", type=float, help="uniform catch probability")
    p_des.add_argument("--rod-length", type=float, help="particle rod length (m); adds radii")
    p_des.add_argument("--out", help="write the schedule to a file instead of stdout")
    p_des.set_defaults(func=_cmd_design)

    p_cal = sub.add_parser("calibrate", help="rate constant from a measured growth rate")
    p_cal.add_argument("--growth", type=float, required=True, help="deposit growth rate (m/s)")
    p_cal.add_argument("--mass-concentration", type=float, required=True,
                       help="solute mass concentration (kg/m^3)")
    p_cal.add_argument("--solute-molar-mass", type=float, required=True, help="kg/mol")
    p_cal.add_argument("--sediment-molar-mass", type=float, required=True, help="kg/mol")
    p_cal.add_argument("--sediment-density", type=float, required=True, help="kg/m^3")
    p_cal.add_argument("--diffusivity", type=float, required=True, help="m^2/s")
    p_cal.add_argument("--radius", type=float, required=True, help="aperture radius (m)")
    p_cal.add_argument("--reaction-order", type=int, default=1)
    p_cal.add_argument("--stoichiometry", type=int, default=1,
                       help="solute units per sediment unit")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_est = sub.add_parser("estimate", help="closed-form lifetime numbers for a config")
    p_est.add_argument("--config", required=True)
    p_est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # CalibrationInfeasibleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CalibrationInfeasibleError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
