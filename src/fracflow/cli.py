"""Command-line front end: run scenarios, compare against references.

Commands
--------
``fracflow run <scenario-or-config> [--n N] [--variant V] [--tol T] [--out DIR]``
    Solve one built-in scenario and write solution.csv, one CSV per sampled
    profile, one CSV per fracture, and summary.json into the output folder.

``fracflow compare <scenario-or-config> [--oracle NAME] [...]``
    Rerun a scenario next to its independent reference and write
    compare.json; exits 4 when the mismatch exceeds the scenario threshold.

``fracflow list``
    Print the built-in scenarios with variants and default sizes.

The positional argument is either a scenario name or a path to a JSON config
file (detected by an existing file or a ``.json`` suffix). A config may
hold ``scenario``, ``n``, ``variant``, ``tol`` and ``out``, plus
``fractures`` and ``profiles`` for run or ``oracle`` for compare; any other
key is an error. Command-line flags override config values. Exit codes:
0 ok, 2 invalid input or geometry, 3 solver failure, 4 comparison above
threshold. A run whose mass-balance defect exceeds 1e-8 of the inflow
exits 0 with a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, GeometryError, NonConvergenceError,
                     SolverError)
from .geometry import ConstantAperture, FractureNetwork, FractureSpec, Point
from .postprocess import (write_fracture_csv, write_profile_csv,
                          write_solution_csv)
from .scenarios import SCENARIOS, ScenarioResult, compare_scenario, run_scenario

__all__ = ["main"]

# The config keys each command reads; any other key is an error.
_SHARED_KEYS = {"scenario", "n", "variant", "tol", "out"}
_CONFIG_KEYS = {"run": _SHARED_KEYS | {"fractures", "profiles"},
                "compare": _SHARED_KEYS | {"oracle"}}


def _is_number(value) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_config(path: str, command: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config file {path!r} must hold a JSON object at top level")
    allowed = _CONFIG_KEYS[command]
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigurationError(
            f"config keys {unknown} are not read by {command}; it reads {sorted(allowed)}")
    if "scenario" in data and not isinstance(data["scenario"], str):
        raise ConfigurationError("config field 'scenario' must be a string")
    if "n" in data:
        if not isinstance(data["n"], int) or isinstance(data["n"], bool):
            raise ConfigurationError("config field 'n' must be an integer")
    if "variant" in data and not isinstance(data["variant"], str):
        raise ConfigurationError("config field 'variant' must be a string")
    if "tol" in data and not _is_number(data["tol"]):
        raise ConfigurationError("config field 'tol' must be a number")
    if "oracle" in data and not isinstance(data["oracle"], str):
        raise ConfigurationError("config field 'oracle' must be a string")
    if "out" in data and not isinstance(data["out"], str):
        raise ConfigurationError("config field 'out' must be a string")
    return data


def _parse_fractures(raw) -> FractureNetwork:
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(
            "config field 'fractures' must be a non-empty list of objects")
    specs = []
    for i, entry in enumerate(raw):
        where = f"fractures[{i}]"
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{where} must be an object")
        unknown = sorted(set(entry) - {"path", "aperture", "mobility"})
        if unknown:
            raise ConfigurationError(f"{where} has unknown keys {unknown}")
        path = entry.get("path")
        if (not isinstance(path, list) or len(path) < 2
                or not all(isinstance(p, list) and len(p) == 2
                           and all(_is_number(c) for c in p) for p in path)):
            raise ConfigurationError(
                f"{where}.path must be a list of at least two [x, y] pairs")
        aperture = entry.get("aperture")
        if not _is_number(aperture) or aperture <= 0:
            raise ConfigurationError(f"{where}.aperture must be a positive number")
        mobility = entry.get("mobility")
        if not _is_number(mobility) or mobility <= 0:
            raise ConfigurationError(f"{where}.mobility must be a positive number")
        specs.append(FractureSpec(
            path=tuple(Point(float(x), float(y)) for x, y in path),
            aperture=ConstantAperture(float(aperture)),
            mobility=float(mobility)))
    return FractureNetwork(tuple(specs))


def _parse_profiles(raw) -> dict[str, tuple[Point, Point, int]]:
    if not isinstance(raw, dict) or not raw:
        raise ConfigurationError(
            "config field 'profiles' must be a non-empty object of named segments")
    out = {}
    for name, entry in raw.items():
        where = f"profiles[{name!r}]"
        try:
            fits = len(os.fsencode(f"profile_{name}.csv")) <= 255
        except UnicodeEncodeError:
            fits = False
        if not (name and fits) or any(c in name for c in "/\\\0"):
            raise ConfigurationError(
                f"{where}: a profile name must be non-empty, hold no '/', '\\' or NUL, "
                "and encode profile_<name>.csv as a file name of at most 255 bytes")
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{where} must be an object")
        unknown = sorted(set(entry) - {"start", "end", "n"})
        if unknown:
            raise ConfigurationError(f"{where} has unknown keys {unknown}")
        pts = []
        for key in ("start", "end"):
            p = entry.get(key)
            if (not isinstance(p, list) or len(p) not in (1, 2)
                    or not all(_is_number(c) for c in p)):
                raise ConfigurationError(
                    f"{where}.{key} must be [x] or [x, y] coordinates")
            pts.append(Point(*[float(c) for c in p]))
        m = entry.get("n", 65)
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise ConfigurationError(f"{where}.n must be an integer >= 2")
        out[name] = (pts[0], pts[1], m)
    return out


def _merge_args(args) -> dict:
    """Config-file values overridden by explicit command-line flags."""
    target = args.target
    config: dict = {}
    if target is not None:
        if target.endswith(".json") or Path(target).is_file():
            config = _load_config(target, args.command)
        else:
            config["scenario"] = target
    merged = {
        "scenario": config.get("scenario"),
        "fractures": (_parse_fractures(config["fractures"])
                      if "fractures" in config else None),
        "profiles": (_parse_profiles(config["profiles"])
                     if "profiles" in config else None),
    }
    # A flag that is given, even as an empty string, overrides the config.
    for key, default in (("n", None), ("variant", None), ("tol", 1e-10),
                         ("oracle", None), ("out", None)):
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else config.get(key, default)
    if not merged["scenario"]:
        raise ConfigurationError(
            "no scenario given: pass a scenario name, a config path, or a "
            "config with a 'scenario' field")
    if merged["out"] == "":
        raise ConfigurationError("the output folder 'out' is empty: name a folder, "
                                 "or leave 'out' out for the default")
    return merged


def _out_dir(merged: dict, sub: str) -> Path:
    """The output folder, checked before any solve: the nearest part of its
    path that exists must be a writable folder. The commands make it only
    after the solve, so a run that fails leaves no folder behind."""
    path = (Path(merged["out"]) if merged["out"] is not None else
            Path("fracflow_out") / (merged["scenario"] + (f"_{sub}" if sub else "")))
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK)):
        raise ConfigurationError(f"cannot make output folder {str(path)!r}: "
                                 f"{str(existing)!r} is not a writable folder")
    return path


def _summary_payload(res: ScenarioResult) -> dict:
    inflow = sum(max(0.0, -v) for v in res.fluxes.values())
    payload = {
        "scenario": res.name,
        "variant": res.variant,
        "n": res.n,
        "params": res.params,
        "dofs": res.split.n_dofs,
        "subdomains": res.split.n_subdomains,
        "interface_entities": len(res.split.interface_edges),
        "method": res.report.method,
        "cg_iterations": res.report.iterations,
        "refinement_iterations": res.report.refinement_iterations,
        "multigrid_levels": list(res.report.multigrid_levels),
        "relative_residual": res.report.relative_residual,
        "converged": res.report.converged,
        "at_float64_floor": res.report.float64_floor,
        "boundary_fluxes": res.fluxes,
        "mass_balance_defect": res.defect,
        "inflow": inflow,
        # Acceptance criterion 4: global mass balance to 1e-8 of the inflow.
        "mass_balance_within_gate": res.defect <= 1e-8 * inflow,
        "profiles": {
            key: {
                "file": f"profile_{key}.csv",
                "n_samples": len(prof),
                "min": float(np.min(prof.values)),
                "max": float(np.max(prof.values)),
            } for key, prof in res.profiles.items()
        },
        "fractures": [
            {
                "id": j,
                "file": f"fracture_{j}.csv",
                "n_nodes": len(mean),
                "pressure_min": float(np.min(mean.values)),
                "pressure_max": float(np.max(mean.values)),
                "max_abs_jump": float(np.max(np.abs(jump.values))),
                "extremal_jump": float(jump.values[np.argmax(np.abs(jump.values))]),
            } for j, (mean, jump) in enumerate(zip(res.fracture_means,
                                                  res.fracture_jumps))
        ],
    }
    payload.update(res.extras)
    return payload


def _cmd_run(args) -> int:
    merged = _merge_args(args)
    out = _out_dir(merged, merged["variant"] or "")
    res = run_scenario(merged["scenario"], n=merged["n"],
                       variant=merged["variant"], tol=merged["tol"],
                       fractures=merged["fractures"],
                       extra_profiles=merged["profiles"])
    out.mkdir(parents=True, exist_ok=True)
    write_solution_csv(out / "solution.csv", res.split, res.pressure)
    payload = _summary_payload(res)
    for key, prof in res.profiles.items():
        write_profile_csv(out / payload["profiles"][key]["file"], prof)
    for j, (mean, jump) in enumerate(zip(res.fracture_means, res.fracture_jumps)):
        write_fracture_csv(out / payload["fractures"][j]["file"], mean, jump)
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"{res.name}: {res.split.n_dofs} dofs, {res.split.n_subdomains} "
          f"subdomains, defect {res.defect:.3e} -> {out}")
    if not payload["mass_balance_within_gate"]:
        print(f"warning: mass balance defect {res.defect:.3e} exceeds 1e-8 of the "
              f"inflow {payload['inflow']:.3e}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    merged = _merge_args(args)
    out = _out_dir(merged, "compare")
    report = compare_scenario(merged["scenario"], n=merged["n"],
                              variant=merged["variant"], tol=merged["tol"],
                              oracle=merged["oracle"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{merged['scenario']} vs {report['oracle']}: {status} -> {out}")
    return 0 if report["passed"] else 4


def _cmd_list(_args) -> int:
    for spec in SCENARIOS.values():
        variants = f" ({ '|'.join(spec.variants) })" if spec.variants else ""
        oracle = f" [oracle: {', '.join(spec.oracles)}]" if spec.oracles else ""
        print(f"{spec.name}{variants}: {spec.description} "
              f"(default n={spec.default_n}){oracle}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracflow",
        description="Darcy flow with fractures as interface conditions on "
                    "duplicated mesh lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_oracle):
        p.add_argument("target", nargs="?", default=None,
                       help="scenario name or JSON config path")
        p.add_argument("--n", type=int, default=None, help="cells per side")
        p.add_argument("--variant", default=None, help="scenario variant")
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default 1e-10)")
        p.add_argument("--out", default=None, help="output directory")
        if with_oracle:
            p.add_argument("--oracle", default=None,
                           help="reference to compare against")

    run_p = sub.add_parser("run", help="solve a scenario and write outputs")
    common(run_p, with_oracle=False)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="check a scenario against its reference")
    common(cmp_p, with_oracle=True)
    cmp_p.set_defaults(func=_cmd_compare)

    list_p = sub.add_parser("list", help="show built-in scenarios")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
