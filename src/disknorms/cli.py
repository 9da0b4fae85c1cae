"""Command-line front end: norms, margins, theorem verdicts, alpha sweeps.

Reports are deterministic: given the same invocation (and seed), the JSON
and CSV bytes are identical across runs.  --workers is accepted and has no
effect: scans run serially, so reports are byte-identical for every value.
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
import io
import json
import math
import sys
from typing import Optional

from . import __version__
from .catalog import (Alpha, HalfPlane, Identity, Koebe, RobertsonExtremal,
                      SpiralPower, random_member)
from .derivatives import weighted_norm
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
    "random": lambda cfg, alpha, zeta: _random_member(cfg, alpha),
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

PLAN_KEYS = ("radial_count", "angular_count", "r_cap", "refine_depth", "rel_tol")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _norm_json(est) -> dict:
    return {
        "value": est.value,
        "witness": _complex_json(est.witness),
        "witness_r": est.witness_r,
        "witness_theta": est.witness_theta,
        "weight_exponent": est.weight_exponent,
        "converged": est.converged,
        "depth_used": est.depth_used,
    }


def _margin_json(rep) -> dict:
    return {
        "inf_value": rep.inf_value,
        "witness": _complex_json(rep.witness),
        "witness_r": rep.witness_r,
        "witness_theta": rep.witness_theta,
        "samples": rep.samples,
    }


def _report_json(rep) -> dict:
    return {
        "theorem_id": rep.theorem_id,
        "status": rep.status,
        "max_violation": rep.max_violation,
        "witness": None if rep.witness is None else _complex_json(rep.witness),
        "details": rep.details,
        "estimate": rep.estimate,
        "bound": rep.bound,
    }


def build_parser() -> _Parser:
    p = _Parser(prog="disknorms", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"disknorms {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with the same keys as the flags")
        sp.add_argument("--fn", type=str, default=None, help="function tag")
        sp.add_argument("--alpha", type=float, default=None,
                        help="class angle (radians unless --deg)")
        sp.add_argument("--deg", action="store_true", default=None,
                        help="interpret --alpha in degrees")
        sp.add_argument("--zeta-arg", dest="zeta_arg", type=float, default=None,
                        help="argument of the unimodular rotation parameter")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--degree", type=int, default=None)
        sp.add_argument("--zero-f2", dest="zero_f2", action="store_true", default=None,
                        help="force f''(0) = 0 in the generated member")
        sp.add_argument("--radial", dest="radial_count", type=int, default=None)
        sp.add_argument("--angular", dest="angular_count", type=int, default=None)
        sp.add_argument("--r-cap", dest="r_cap", type=float, default=None)
        sp.add_argument("--refine-depth", dest="refine_depth", type=int, default=None)
        sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
        sp.add_argument("--points", type=int, default=None,
                        help="sample count for pointwise verifiers")
        sp.add_argument("--workers", type=int, default=None, help="has no effect")
        sp.add_argument("--format", dest="format", choices=("json", "csv", "text"),
                        default=None)
        sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    sp = sub.add_parser("norm", help="weighted pre-Schwarzian/Schwarzian norm estimates")
    sp.add_argument("--which", choices=("pre", "schwarzian", "both"), default=None)
    common(sp)

    sp = sub.add_parser("verify", help="run one theorem verifier")
    sp.add_argument("theorem", type=str, help="one of " + ", ".join(THEOREM_IDS))
    common(sp)

    sp = sub.add_parser("sweep", help="alpha sweep of the extremal-family norms")
    sp.add_argument("--alphas", type=str, default=None,
                    help="comma-separated alpha grid (radians unless --deg)")
    common(sp)

    sp = sub.add_parser("sample", help="emit a generated member and its margin")
    common(sp)
    return p


DEFAULTS = {
    "fn": "robertson-extremal",
    "alpha": 0.0,
    "deg": False,
    "zeta_arg": 0.0,
    "seed": 0,
    "degree": 3,
    "zero_f2": False,
    "radial_count": 64,
    "angular_count": 128,
    "r_cap": 0.995,
    "refine_depth": 6,
    "rel_tol": 1e-4,
    "points": 50,
    "workers": 1,
    "which": "both",
    "format": None,
    "out": None,
    "alphas": "0,0.5235987755982988,0.7853981633974483,1.0471975511965976",
}


# JSON types a config value may take, by the type of its DEFAULTS entry: an
# integer stands for a number, a boolean never for an integer
_CONFIG_TYPES = {float: (float, int), type(None): (str, type(None))}
_CONFIG_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
                 type(None): "a string or null"}


def _check_config_type(key: str, val) -> None:
    want = type(DEFAULTS[key])
    if type(val) not in _CONFIG_TYPES.get(want, (want,)):
        raise UsageError(f"config key {key!r} must be {_CONFIG_NAMES[want]}, got {val!r}")


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
            _check_config_type(key, val)
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["command"] = args.command
    if args.command == "verify":
        cfg["theorem"] = args.theorem
    if cfg["deg"]:
        cfg["alpha"] = math.radians(cfg["alpha"])
        cfg["alphas"] = ",".join(str(math.radians(float(a)))
                                 for a in str(cfg["alphas"]).split(","))
        cfg["deg"] = False
    return cfg


def _alpha(cfg: dict) -> Alpha:
    try:
        return Alpha(float(cfg["alpha"]))
    except ValueError as exc:
        raise UsageError(str(exc))


def _plan(cfg: dict) -> SamplingPlan:
    try:
        return SamplingPlan(**{k: cfg[k] for k in PLAN_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc))


def _random_member(cfg: dict, alpha: Alpha):
    try:
        return random_member(alpha, cfg["seed"], cfg["degree"], cfg["zero_f2"])
    except ValueError as exc:
        raise UsageError(str(exc))


def build_function(cfg: dict):
    tag = cfg["fn"]
    if tag not in FUNCTION_TAGS:
        raise UsageError(f"unknown function tag {tag!r}; known: {', '.join(FUNCTION_TAGS)}")
    zeta = complex(math.cos(cfg["zeta_arg"]), math.sin(cfg["zeta_arg"]))
    return _BUILDERS[tag](cfg, _alpha(cfg), zeta)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


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


def cmd_norm(cfg: dict) -> int:
    fn = build_function(cfg)
    plan = _plan(cfg)
    results = {key: _norm_json(weighted_norm(fn, k, plan))
               for key, k in (("pre", 1), ("schwarzian", 2))
               if cfg["which"] in (key, "both")}
    fmt = cfg["format"] or "json"
    if fmt == "json":
        _emit(_json_payload(cfg, results), cfg["out"])
    elif fmt == "csv":
        buf = io.StringIO()
        buf.write("which,value,witness_re,witness_im,converged,depth_used\n")
        for key, r in sorted(results.items()):
            buf.write(f"{key},{r['value']!r},{r['witness']['re']!r},"
                      f"{r['witness']['im']!r},{r['converged']},{r['depth_used']}\n")
        _emit(buf.getvalue(), cfg["out"])
    else:
        lines = [f"{key} norm estimate: {r['value']:.10g} "
                 f"(witness {r['witness']['re']:.6g}{r['witness']['im']:+.6g}i, "
                 f"converged={r['converged']})"
                 for key, r in sorted(results.items())]
        _emit("\n".join(lines) + "\n", cfg["out"])
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    theorem = cfg["theorem"]
    if theorem not in THEOREM_IDS:
        raise UsageError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    if cfg["points"] < 1:
        raise UsageError(f"points must be >= 1, got {cfg['points']}")
    fn = build_function(cfg)
    points = random_disk_points(cfg["points"], seed=cfg["seed"] + 1,
                                radius=min(0.9, fn.radius_limit))
    rep = _VERIFIERS[theorem](fn, _alpha(cfg), _plan(cfg), points)
    fmt = cfg["format"] or "json"
    if fmt == "json":
        _emit(_json_payload(cfg, _report_json(rep)), cfg["out"])
    else:
        _emit(f"{rep.theorem_id}: {rep.status} (max violation {rep.max_violation:.3g})\n"
              f"  {rep.details}\n", cfg["out"])
    if rep.status == PASS:
        return EXIT_OK
    if rep.status == PRECONDITION_UNMET:
        return EXIT_PRECONDITION
    return EXIT_THEOREM_FAIL


def cmd_sweep(cfg: dict) -> int:
    try:
        alphas = [Alpha(float(tok)) for tok in str(cfg["alphas"]).split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(str(exc))
    plan = _plan(cfg)
    rows = []
    for alpha in alphas:
        fn = RobertsonExtremal(alpha)
        c = alpha.cos
        pre = weighted_norm(fn, 1, plan)
        sch = weighted_norm(fn, 2, plan)
        rows.append({
            "alpha": alpha.value,
            "pre_bound": 2.0 * c,
            "pre_estimate": pre.value,
            "schwarzian_bound": 2.0 * c * (2.0 - c),
            "schwarzian_estimate": sch.value,
        })
    fmt = cfg["format"] or "csv"
    if fmt == "json":
        _emit(_json_payload(cfg, {"rows": rows}), cfg["out"])
    else:
        buf = io.StringIO()
        buf.write("alpha,pre_bound,pre_estimate,schwarzian_bound,schwarzian_estimate\n")
        for row in rows:
            buf.write(f"{row['alpha']!r},{row['pre_bound']!r},{row['pre_estimate']!r},"
                      f"{row['schwarzian_bound']!r},{row['schwarzian_estimate']!r}\n")
        _emit(buf.getvalue(), cfg["out"])
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    alpha = _alpha(cfg)
    member = _random_member(cfg, alpha)
    plan = _plan(cfg)
    margin = robertson_margin(member, alpha, plan)
    prov = member.provenance
    results = {
        "gamma": prov.gamma,
        "blaschke_zeros": [_complex_json(a) for a in prov.blaschke_zeros],
        "coefficients": [_complex_json(c) for c in member.series.coeffs],
        "margin": _margin_json(margin),
    }
    _emit(_json_payload(cfg, results), cfg["out"])
    return EXIT_OK


_COMMANDS = {"norm": cmd_norm, "verify": cmd_verify, "sweep": cmd_sweep, "sample": cmd_sample}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return _COMMANDS[cfg["command"]](cfg)
    except UsageError as exc:
        print(f"disknorms: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiskNormsError as exc:
        print(f"disknorms: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION


if __name__ == "__main__":
    sys.exit(main())
