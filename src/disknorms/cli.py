"""Command-line front end: norms, margins, theorem verdicts, alpha sweeps.

Reports are deterministic: given the same invocation (and seed), the JSON
and CSV bytes are identical across runs.  --workers is accepted and has no
effect: scans run serially, so reports are byte-identical for every value.
Each command writes its own formats: norm json|csv|text, verify json|text,
sweep csv|json, sample json; the first is the default.  --config values are
checked against their flag's type and choices, and --zeta-arg must be finite.
Exit codes:
0 success/pass, 2 theorem violation, 3 precondition unmet, 64 usage error,
65 evaluation error.

Examples:
  disknorms norm --fn robertson-extremal --alpha 0 --which pre
  disknorms verify T44 --fn robertson-extremal --alpha 0
  disknorms sweep --alphas 0,0.5236,0.7854,1.0472
  disknorms sample --alpha 0.5 --seed 7 --degree 3 --zero-f2
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Callable, NamedTuple, Optional

from . import __version__
from .catalog import (Alpha, HalfPlane, Identity, Koebe, RobertsonExtremal,
                      SpiralPower, random_member)
from .derivatives import scan
from .disksup import SamplingPlan, random_disk_points
from .errors import DiskNormsError
from .robertson import phi_transform, robertson_margin
from .theorems import (PASS, PRECONDITION_UNMET, lemma_schur_check,
                       verify_T41, verify_T42_distortion, verify_T42_growth,
                       verify_T43, verify_T44, verify_T45)

EXIT_OK = 0
EXIT_THEOREM_FAIL = 2
EXIT_PRECONDITION = 3
EXIT_USAGE = 64
EXIT_EVALUATION = 65

_BUILDERS = {
    "identity": lambda cfg, alpha, zeta: Identity(),
    "halfplane": lambda cfg, alpha, zeta: HalfPlane(),
    "koebe": lambda cfg, alpha, zeta: Koebe(),
    "robertson-extremal": lambda cfg, alpha, zeta: RobertsonExtremal(alpha, zeta),
    "spiral-power": lambda cfg, alpha, zeta: SpiralPower(alpha, zeta),
    "random": lambda cfg, alpha, zeta: _checked(random_member, alpha, cfg["seed"],
                                                cfg["degree"], cfg["zero_f2"]),
}
FUNCTION_TAGS = tuple(_BUILDERS)


def _lemma_schur(fn, alpha, points):
    phi = phi_transform(fn, alpha)
    return lemma_schur_check(phi.evaluator, phi.gamma, points)


# each lambda looks its verifier up by module-level name when it runs, so a
# rebound name (a test double, a tracing wrapper) takes effect
_VERIFIERS = {
    "T41": lambda fn, alpha, plan, pts: verify_T41(fn, alpha, plan),
    "T42d": lambda fn, alpha, plan, pts: verify_T42_distortion(fn, alpha, pts, plan=plan),
    "T42g": lambda fn, alpha, plan, pts: verify_T42_growth(fn, alpha, pts, plan=plan),
    "T43": lambda fn, alpha, plan, pts: verify_T43(fn, alpha, plan),
    "T44": lambda fn, alpha, plan, pts: verify_T44(fn, alpha, plan),
    "T45": lambda fn, alpha, plan, pts: verify_T45(fn, alpha, plan),
    "LemA": lambda fn, alpha, plan, pts: _lemma_schur(fn, alpha, pts),
}
THEOREM_IDS = tuple(_VERIFIERS)


class Option(NamedTuple):
    """One config key: its flag, type (bool for an on-switch), default and help."""

    flag: str
    type: type
    default: object
    help: Optional[str] = None
    choices: Optional[tuple] = None
    command: Optional[str] = None  # the only command with this flag; None for all


_PLAN = SamplingPlan()
OPTIONS = {
    "fn": Option("--fn", str, "robertson-extremal", "function tag"),
    "alpha": Option("--alpha", float, 0.0, "class angle (radians unless --deg)"),
    "deg": Option("--deg", bool, False, "interpret --alpha in degrees"),
    "zeta_arg": Option("--zeta-arg", float, 0.0,
                       "argument of the unimodular rotation parameter"),
    "seed": Option("--seed", int, 0),
    "degree": Option("--degree", int, 3),
    "zero_f2": Option("--zero-f2", bool, False, "force f''(0) = 0 in the generated member"),
    "radial_count": Option("--radial", int, _PLAN.radial_count),
    "angular_count": Option("--angular", int, _PLAN.angular_count),
    "r_cap": Option("--r-cap", float, _PLAN.r_cap),
    "refine_depth": Option("--refine-depth", int, _PLAN.refine_depth),
    "rel_tol": Option("--rel-tol", float, _PLAN.rel_tol),
    "points": Option("--points", int, 50, "sample count for pointwise verifiers"),
    "workers": Option("--workers", int, 1, "has no effect"),
    "which": Option("--which", str, "both", choices=("pre", "schwarzian", "both"),
                    command="norm"),
    "format": Option("--format", str, None),  # choices: the command's formats
    "out": Option("--out", str, None, "output path (default stdout)"),
    "alphas": Option("--alphas", str,
                     "0,0.5235987755982988,0.7853981633974483,1.0471975511965976",
                     "comma-separated alpha grid (radians unless --deg)", command="sweep"),
}
DEFAULTS = {key: opt.default for key, opt in OPTIONS.items()}

# JSON types a config value may take, by its option's type: an integer stands
# for a number, a boolean never for an integer
_JSON_TYPES = {int: ((int,), "an integer"), float: ((float, int), "a number"),
               str: ((str,), "a string"), bool: ((bool,), "a boolean")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument matching this is a value, not an option: every float
        # literal, where argparse's own pattern misses -1e-3 and -inf
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)

    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError (a rejected input) as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _choices(key: str, command: str) -> Optional[tuple]:
    return tuple(COMMANDS[command].formats) if key == "format" else OPTIONS[key].choices


def _json_of(value):
    """A report dataclass as its fields, a complex value as {re, im}."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_of(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    p = _Parser(prog="disknorms", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"disknorms {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sp = sub.add_parser(command, help=spec.help)
        if command == "verify":
            sp.add_argument("theorem", type=str, help="one of " + ", ".join(THEOREM_IDS))
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with the same keys as the flags")
        for key, opt in OPTIONS.items():
            if opt.command in (None, command):
                kind = ({"action": "store_true"} if opt.type is bool
                        else {"type": opt.type, "choices": _choices(key, command)})
                sp.add_argument(opt.flag, dest=key, default=None, help=opt.help, **kind)
    return p


def _check_config_value(key: str, val, command: str) -> None:
    opt = OPTIONS[key]
    types, name = _JSON_TYPES[opt.type]
    if opt.default is None:
        types, name = types + (type(None),), name + " or null"
    if type(val) not in types:
        raise UsageError(f"config key {key!r} must be {name}, got {val!r}")
    choices = _choices(key, command)
    if choices and val is not None and val not in choices:
        raise UsageError(f"config key {key!r} must be one of {', '.join(choices)}, got {val!r}")


def _alpha_grid(text: str) -> list[float]:
    """The comma-separated alpha grid as floats; empty entries are skipped."""
    return [_checked(float, tok) for tok in text.split(",") if tok != ""]


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            _check_config_value(key, val, args.command)
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    if args.command == "verify":
        cfg["theorem"] = args.theorem
    if not math.isfinite(cfg["zeta_arg"]):
        raise UsageError(f"zeta_arg must be finite, got {cfg['zeta_arg']!r}")
    if cfg["deg"]:
        cfg["alpha"] = math.radians(cfg["alpha"])
        cfg["alphas"] = ",".join(str(math.radians(a)) for a in _alpha_grid(cfg["alphas"]))
        cfg["deg"] = False
    return cfg


def _alpha(cfg: dict) -> Alpha:
    return _checked(Alpha, float(cfg["alpha"]))


def _plan(cfg: dict) -> SamplingPlan:
    return _checked(SamplingPlan,
                    **{f.name: cfg[f.name] for f in dataclasses.fields(SamplingPlan)})


def build_function(cfg: dict):
    tag = cfg["fn"]
    if tag not in FUNCTION_TAGS:
        raise UsageError(f"unknown function tag {tag!r}; known: {', '.join(FUNCTION_TAGS)}")
    zeta = complex(math.cos(cfg["zeta_arg"]), math.sin(cfg["zeta_arg"]))
    return _BUILDERS[tag](cfg, _alpha(cfg), zeta)


def _json_payload(cfg: dict, results: dict) -> str:
    # out/workers do not change results: keep them out of the config block
    skip = ("out", "workers", "command")
    doc = {
        "tool": "disknorms",
        "version": __version__,
        "command": cfg["command"],
        "config": {k: cfg[k] for k in sorted(cfg) if k not in skip},
        "results": results,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(header: tuple, rows) -> str:
    # str of a float is its repr, so every value reads back bit for bit
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _norm_csv(cfg: dict, results: dict) -> str:
    return _csv(("which", "value", "witness_re", "witness_im", "converged", "depth_used"),
                [(key, r["value"], r["witness"]["re"], r["witness"]["im"], r["converged"],
                  r["depth_used"]) for key, r in sorted(results.items())])


def _norm_text(cfg: dict, results: dict) -> str:
    return "".join(f"{key} norm estimate: {r['value']:.10g} "
                   f"(witness {r['witness']['re']:.6g}{r['witness']['im']:+.6g}i, "
                   f"converged={r['converged']})\n" for key, r in sorted(results.items()))


def _verify_text(cfg: dict, r: dict) -> str:
    return (f"{r['theorem_id']}: {r['status']} (max violation {r['max_violation']:.3g})\n"
            f"  {r['details']}\n")


_SWEEP_COLUMNS = ("alpha", "pre_bound", "pre_estimate", "schwarzian_bound",
                  "schwarzian_estimate")


def _sweep_csv(cfg: dict, results: dict) -> str:
    return _csv(_SWEEP_COLUMNS, [row.values() for row in results["rows"]])


def cmd_norm(cfg: dict) -> tuple[dict, int]:
    fn = build_function(cfg)
    plan = _plan(cfg)
    keys = ("pre", "schwarzian") if cfg["which"] == "both" else (cfg["which"],)
    ests = scan(fn, plan, *(1 if key == "pre" else 2 for key in keys))
    return {key: _json_of(est) for key, est in zip(keys, ests)}, EXIT_OK


_EXIT_OF_STATUS = {PASS: EXIT_OK, PRECONDITION_UNMET: EXIT_PRECONDITION}


def cmd_verify(cfg: dict) -> tuple[dict, int]:
    theorem = cfg["theorem"]
    if theorem not in THEOREM_IDS:
        raise UsageError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    if cfg["points"] < 1:
        raise UsageError(f"points must be >= 1, got {cfg['points']}")
    fn = build_function(cfg)
    points = random_disk_points(cfg["points"], seed=cfg["seed"] + 1,
                                radius=min(0.9, fn.radius_limit))
    rep = _VERIFIERS[theorem](fn, _alpha(cfg), _plan(cfg), points)
    return _json_of(rep), _EXIT_OF_STATUS.get(rep.status, EXIT_THEOREM_FAIL)


def cmd_sweep(cfg: dict) -> tuple[dict, int]:
    alphas = [_checked(Alpha, a) for a in _alpha_grid(cfg["alphas"])]
    plan = _plan(cfg)
    rows = []
    for alpha in alphas:
        fn = RobertsonExtremal(alpha)
        c = alpha.cos
        pre, sch = scan(fn, plan, 1, 2)
        rows.append(dict(zip(_SWEEP_COLUMNS, (alpha.value, 2.0 * c, pre.value,
                                              2.0 * c * (2.0 - c), sch.value))))
    return {"rows": rows}, EXIT_OK


def cmd_sample(cfg: dict) -> tuple[dict, int]:
    alpha = _alpha(cfg)
    member = _BUILDERS["random"](cfg, alpha, None)
    margin = robertson_margin(member, alpha, _plan(cfg))
    prov = member.provenance
    return {
        "gamma": prov.gamma,
        "blaschke_zeros": [_json_of(a) for a in prov.blaschke_zeros],
        "coefficients": [_json_of(c) for c in member.series.coeffs],
        "margin": _json_of(margin),
    }, EXIT_OK


class Command(NamedTuple):
    run: Callable[[dict], tuple[dict, int]]  # cfg -> (results, exit code)
    help: str
    formats: dict  # format -> writer(cfg, results); the first is the default


COMMANDS = {
    "norm": Command(cmd_norm, "weighted pre-Schwarzian/Schwarzian norm estimates",
                    {"json": _json_payload, "csv": _norm_csv, "text": _norm_text}),
    "verify": Command(cmd_verify, "run one theorem verifier",
                      {"json": _json_payload, "text": _verify_text}),
    "sweep": Command(cmd_sweep, "alpha sweep of the extremal-family norms",
                     {"csv": _sweep_csv, "json": _json_payload}),
    "sample": Command(cmd_sample, "emit a generated member and its margin",
                      {"json": _json_payload}),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        command = COMMANDS[cfg["command"]]
        results, code = command.run(cfg)
        write = command.formats[cfg["format"] or next(iter(command.formats))]
        payload = write(cfg, results)
        if cfg["out"]:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return code
    except UsageError as exc:
        print(f"disknorms: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiskNormsError as exc:
        print(f"disknorms: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
