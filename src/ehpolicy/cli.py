"""Command-line front end: policy curves, single-cell evaluations,
figure-style sweeps, and the invariant verification suite.

Subcommands: curve | evaluate | sweep | verify.  An optional plain-text
config file (one key=value per line, `#` comments) can supply any flag;
explicit command-line flags take precedence.  All output is written by a
single writer at the end of the run, so identical config and seed give
byte-identical files.

Exit codes: 0 success, 1 bad configuration, 2 evaluator non-convergence,
3 failed verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checks
from . import evaluation as ev
from . import metrics as mx
from . import policies as pol
from . import rewards as rw

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Raised for any configuration problem; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2); route everything through UsageError instead
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# value parsers shared by flags and config files


def _parse_reward_spec(text: str) -> rw.RewardFunction:
    name, _, arg = text.strip().partition(":")
    name = name.lower()
    if name == "sqrt":
        if arg:
            raise ValueError("sqrt reward takes no parameter")
        return rw.RewardFunction.sqrt_rate()
    if name == "awgn":
        gamma = float(arg) if arg else 1.0
        return rw.RewardFunction.awgn(gamma)
    raise ValueError(f"unknown reward {text!r}; expected awgn[:gamma] or sqrt")


def _parse_grid(text: str) -> tuple[float, ...]:
    """'0.5' | '0.5,1,2' | 'lo:hi:count' (inclusive linear grid)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range grid must be lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("empty grid")
    return values


def _parse_policies(text: str) -> tuple[str, ...]:
    kinds = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not kinds:
        raise ValueError("empty policy list")
    return kinds


# ---------------------------------------------------------------------------
# config handling


def _load_config(path: str) -> dict[str, str]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        mapping[key.strip().replace("-", "_").lower()] = value.strip()
    return mapping


def _require_positive(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] is not None and not cfg[key] > 0:
            raise UsageError(f"{key} must be positive, got {cfg[key]!r}")
        _require_finite(key, cfg[key])


def _require_finite(key: str, value) -> None:
    # an overflowing flag such as 1e309 parses to inf, which no evaluator takes
    if value == math.inf:
        raise UsageError(f"{key} must be finite, got {value!r}")


def _check_run(cfg: dict) -> None:
    """Checks shared by evaluate and sweep."""
    _require_positive(cfg, "n", "paths", "grid_n", "eps", "tol", "max_iter")
    if cfg["seed"] < 0:
        raise UsageError("seed must be nonnegative")
    if cfg["format"] not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, not {cfg['format']!r}")
    if (cfg["p"] is None) == (cfg["nmcr"] is None):
        raise UsageError("give exactly one of p or nmcr")
    if cfg["method"] not in ("series", "vi", "mc"):
        raise UsageError(f"unknown method {cfg['method']!r}; expected series, vi, or mc")
    if cfg["method"] == "series" and cfg["family"] != "bernoulli":
        raise UsageError("method=series needs family=bernoulli")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_curve(cfg: dict) -> int:
    if not 0.0 < cfg["p"] < 1.0:
        raise UsageError(f"p must lie in (0, 1), got {cfg['p']!r}")
    _require_positive(cfg, "x_max")
    if cfg["points"] < 2:
        raise UsageError("points must be at least 2")
    reward, p = cfg["reward"], cfg["p"]
    x = np.linspace(0.0, cfg["x_max"], cfg["points"])
    columns = [
        x,
        pol.maximin_policy(reward, p).evaluate(x),
        pol.FixedFractionPolicy(p).evaluate(x),
        pol.GreedyPolicy().evaluate(x),
    ]
    lines = ["x,omega,phi,greedy"]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))

    endpoints_out = cfg["endpoints_out"]
    if endpoints_out is None and cfg["out"] is not None:
        target = Path(cfg["out"])
        endpoints_out = str(target.with_name(target.stem + ".endpoints" + target.suffix))
    ep_lines = ["k,x,y"]
    if endpoints_out is not None:
        # listed before anything is written, so a refused list leaves no output
        for e in pol.maximin_kinks(reward, p, cfg["x_max"]):
            ep_lines.append(f"{e.k},{e.x!r},{e.y!r}")
    _emit("\n".join(lines) + "\n", cfg["out"])
    if endpoints_out is not None:
        _emit("\n".join(ep_lines) + "\n", endpoints_out)
    return 0


def cmd_evaluate(cfg: dict) -> int:
    _require_positive(cfg, "c")
    _check_run(cfg)
    if cfg["policy"] not in mx.POLICY_KINDS:
        raise UsageError(f"unknown policy {cfg['policy']!r}; expected one of {mx.POLICY_KINDS}")

    reward, family, c = cfg["reward"], cfg["family"], cfg["c"]
    dist = mx._cell_distribution(family, c, cfg["p"], cfg["nmcr"])
    policy = mx.make_policy(cfg["policy"], reward, dist.mcr())

    method = cfg["method"]
    if method == "series":
        result = ev.bernoulli_reward(policy, reward, c, cfg["p"], tol=cfg["tol"])
        knobs = {"tol": cfg["tol"]}
    elif method == "vi":
        model = ev.build_mdp(reward, dist, cfg["grid_n"])
        result = ev.policy_gain(model, policy, eps=cfg["eps"], max_iter=cfg["max_iter"])
        knobs = {"grid": cfg["grid_n"], "eps": cfg["eps"]}
    else:
        result = ev.simulate(policy, dist, reward, cfg["n"], cfg["paths"], cfg["seed"])
        knobs = {"n": cfg["n"], "paths": cfg["paths"], "seed": cfg["seed"]}

    record = result.as_dict()
    record.update(knobs)
    record.update(
        policy=cfg["policy"],
        reward=reward.spec_string(),
        family=family,
        c=c,
        mcr=dist.mcr(),
    )
    if cfg["p"] is not None:
        record["p"] = cfg["p"]
    if cfg["nmcr"] is not None:
        record["nmcr"] = cfg["nmcr"]

    if cfg["format"] == "json":
        text = json.dumps(record, sort_keys=True) + "\n"
    else:
        keys = sorted(record)
        text = ",".join(keys) + "\n" + ",".join(_fmt(record[k]) for k in keys) + "\n"
    _emit(text, cfg["out"])
    return 0


def cmd_sweep(cfg: dict) -> int:
    if cfg["family"] is None:
        raise UsageError("family is required (bernoulli, uniform, or exponential)")
    _check_run(cfg)
    if (cfg["c"] is None) == (cfg["c_grid"] is None):
        raise UsageError("give exactly one of c or c-grid")

    c_values = (cfg["c"],) if cfg["c"] is not None else cfg["c_grid"]
    if any(v <= 0 for v in c_values):
        raise UsageError("every c must be positive")
    for v in c_values:
        _require_finite("c", v)
    reports = mx.sweep(
        cfg["reward"],
        cfg["policies"],
        cfg["family"],
        c_values,
        p_values=cfg["p"],
        nmcr_values=cfg["nmcr"],
        grid_cells=cfg["grid_n"],
        vi_eps=cfg["eps"],
        series_tol=cfg["tol"],
        policy_evaluator="mc" if cfg["method"] == "mc" else "vi",
        mc_slots=cfg["n"],
        mc_paths=cfg["paths"],
        seed=cfg["seed"],
        max_iter=cfg["max_iter"],
    )

    if cfg["format"] == "csv":
        buffer = io.StringIO()
        mx.write_csv(reports, buffer)
        text = buffer.getvalue()
    else:
        rows = []
        for report in reports:
            row = dataclasses.asdict(report)
            rows.append({k: v for k, v in row.items() if v is not None})
        text = json.dumps(rows, sort_keys=True) + "\n"
    _emit(text, cfg["out"])
    return 0


def cmd_verify(cfg: dict) -> int:
    if cfg["seed"] < 0:
        raise UsageError("seed must be nonnegative")
    results = checks.run_all(cfg["seed"])
    failures = [r for r in results if not r.passed]
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"ok   {r.name}")
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    if failures:
        first = failures[0]
        print(f"first counterexample: {first.name}: {first.detail}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser assembly


# dest -> (flag, converter, help); the converter reads flag and config values alike
_OPTIONS = {
    "reward": ("--reward", _parse_reward_spec, "reward curve: awgn, awgn:GAMMA, or sqrt"),
    "family": ("--family", str, "arrival family: bernoulli, uniform, or exponential"),
    "c": ("--c", float, "battery capacity"),
    "c_grid": ("--c-grid", _parse_grid, "capacity grid: list 'a,b,c' or range 'lo:hi:count'"),
    "p": ("--p", float, "mean-to-capacity ratio (grids allowed where noted)"),
    "nmcr": ("--nmcr", float, "nominal mean-to-capacity ratio (uniform/exponential)"),
    "policy": ("--policy", str, "policy kind: maximin, fixed_fraction, or greedy"),
    "policies": ("--policies", _parse_policies, "comma-separated policy kinds for sweeps"),
    "method": ("--method", str, "evaluator: series, vi, or mc"),
    "n": ("--n", int, "simulated slots per path (mc)"),
    "paths": ("--paths", int, "independent sample paths (mc)"),
    "grid_n": ("--grid-N", int, "battery grid cells (vi)"),
    "eps": ("--eps", float, "span stopping threshold (vi)"),
    "tol": ("--tol", float, "series tail tolerance"),
    "max_iter": ("--max-iter", int, "iteration cap before giving up (vi)"),
    "seed": ("--seed", int, "root seed for any randomized step"),
    "out": ("--out", str, "output file (default: standard output)"),
    "format": ("--format", str, "output format: csv or json"),
    "x_max": ("--x-max", float, "largest battery level on the curve"),
    "points": ("--points", int, "number of curve samples"),
    "endpoints_out": ("--endpoints-out", str, "where to write the kink list"),
}

# evaluator options shared by evaluate and sweep, in flag order
_RUN_DEFAULTS = {
    "n": 100_000,
    "paths": 64,
    "grid_n": 2000,
    "eps": 1e-9,
    "tol": 1e-15,
    "max_iter": 1_000_000,
    "seed": 0,
    "out": None,
}
_AWGN1 = rw.RewardFunction.awgn(1.0)

# name -> (help, handler, {dest: default} in flag order, {dest: converter override})
_COMMANDS = {
    "curve": (
        "sample policy curves and their kinks",
        cmd_curve,
        {"reward": _AWGN1, "p": 0.5, "x_max": 8.0, "points": 201, "out": None,
         "endpoints_out": None},
        {},
    ),
    "evaluate": (
        "long-run reward of one policy in one cell",
        cmd_evaluate,
        {"reward": _AWGN1, "family": "bernoulli", "c": 1.0, "p": None, "nmcr": None,
         "policy": "maximin", "method": "series", **_RUN_DEFAULTS, "format": "json"},
        {},
    ),
    "sweep": (
        "gap/factor table over a parameter grid",
        cmd_sweep,
        {"reward": _AWGN1, "family": None, "c": None, "c_grid": None, "p": None,
         "nmcr": None, "policies": mx.POLICY_KINDS, "method": "vi", **_RUN_DEFAULTS,
         "format": "csv"},
        {"p": _parse_grid, "nmcr": _parse_grid},
    ),
    "verify": ("run every invariant suite", cmd_verify, {"seed": 0}, {}),
}


def _reported(convert):
    """The converter, with its own ValueError text kept in argparse's error."""
    def checked(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r} ({exc})")
    return checked


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehpolicy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, (summary, handler, defaults, converters) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for dest, default in defaults.items():
            flag, convert, help_text = _OPTIONS[dest]
            convert = _reported(converters.get(dest, convert))
            command.add_argument(flag, dest=dest, type=convert, default=default, help=help_text)
        command.add_argument("--config", default=None, help="key=value file; flags win")
        command.set_defaults(func=handler, parser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if getattr(ns, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        if ns.config is not None:
            # config values become the subcommand's string defaults, which
            # argparse converts like flags; flags given on the line still win
            config = _load_config(ns.config)
            unknown = set(config) - set(_COMMANDS[ns.command][2])
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
            ns.parser.set_defaults(**config)
            ns = parser.parse_args(argv)
        return ns.func(vars(ns))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ev.NonConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
