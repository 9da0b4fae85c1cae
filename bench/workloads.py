"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload turns a seed into a list of rounds.  A round is a fixed group
of operations (for example: build one member, then run three verifiers on
it); runs always attempt whole rounds.  ``run_round`` executes and times the
operations of one round and keeps what the checks need; ``check_round``
then compares those outputs with the series-free oracles in ``oracles.py``
and with properties of the method.  Checks run after the timed loop.

The package is reached through module attributes at call time
(``dn.verify_T43``, ``cli.main``) so that the tracer's wrappers are used
when tracing is on.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import oracles
import speed

# Series estimates at the guard radius sit up to ~7.4e-5 below the exact
# value; 2e-4 leaves room for that and for the estimator's rel_tol.
ORACLE_TOL = 2e-4
# |f'| and |f| from the series at |z| <= 0.9 agree with the ray quadrature
# to about 1e-12 or better; the verdict tolerances are 1e-8 and 1e-7.
POINTWISE_TOL = 1e-9
# residual minima are scanned up to the guard radius 0.95, where the series
# of f''' carries most of the truncation error
RESIDUAL_TOL = 2e-4
CLOSED_FORM_BELOW = 1e-3
CLOSED_FORM_ABOVE = 1e-9
MEMBERSHIP_TOL = 1e-6
PROBE_RADIUS = 0.95
EXIT_FOR_STATUS = {"pass": 0, "fail": 2, "precondition_unmet": 3}


@dataclass
class Op:
    """One timed operation and what its checks need."""

    name: str
    seconds: float = 0.0
    calibration_s: float | None = None  # mean of the calibrations around it
    error: str | None = None
    output: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _timed(op: Op, fn, *args, **kwargs):
    before = speed.calibration()
    t0 = time.perf_counter()
    try:
        op.output = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - t0
    op.calibration_s = 0.5 * (before + speed.calibration())
    return op


@dataclass(frozen=True)
class MemberSpec:
    alpha: float
    seed: int
    degree: int
    zero_f2: bool


def member_specs(stream: str, count: int) -> list[MemberSpec]:
    """Alphas uniform in (-1.3, 1.3), degrees cycling 1..3, f''(0) = 0 on
    every other member."""
    rng = random.Random(stream)
    return [MemberSpec(rng.uniform(-1.3, 1.3), rng.randrange(1, 2 ** 31),
                       1 + i % 3, i % 2 == 0) for i in range(count)]


def _close(got, want, tol) -> bool:
    return got is not None and abs(got - want) <= tol


def _witness(report) -> complex | None:
    w = report.get("witness") if isinstance(report, dict) else report.witness
    if isinstance(w, dict):
        return complex(w["re"], w["im"])
    return w


def probe_points() -> list[complex]:
    """A fixed probe set in |z| <= 0.95: 1024 points on the guard circle,
    where most maxima lie, and 512 uniform points inside it."""
    rng = random.Random("probe")
    ring = [PROBE_RADIUS * cmath.exp(2j * math.pi * k / 1024) for k in range(1024)]
    return ring + [PROBE_RADIUS * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                   for _ in range(512)]


class MemberVerdicts:
    """Seeded random members, each built and then checked by T43, T44, T45.

    A round is a pair of seeded members, one with f''(0) = 0 and one
    without, so every run has the same mix of gated (one scan) and full
    (scan plus margin) verifier calls.  Every round also takes the two
    fixed PROBE_MEMBERS, whose estimates must also reach the largest
    series-free value on a fixed probe set.  Seeded members get no probe
    check: the estimator misses maxima on the guard circle for some of
    them, so failures would depend on the seed.  PROBE_MEMBERS[0] passes
    today, and a scan with half as many rays misses its pre-Schwarzian
    maximum by 1.9e-2.  PROBE_MEMBERS[1] fails every time: its
    pre-Schwarzian estimate falls short of the probe maximum by 9.0e-2,
    and its two Schwarzian estimates by 5.7e-2.
    """

    name = "member-verdicts"
    trace_rounds = 3
    PROBE_MEMBERS = (MemberSpec(0.2563856258016777, 430916014, 1, True),
                     MemberSpec(-0.4400355213402305, 1249907269, 1, True))

    def __init__(self, dn, cli, out_dir: str):
        self.dn = dn
        self.plan = dn.SamplingPlan()
        self.probe = probe_points()

    def make_inputs(self, seed: int) -> list[tuple[MemberSpec, ...]]:
        specs = member_specs(f"{self.name}:{seed}", 64)
        return [(a, b, *self.PROBE_MEMBERS) for a, b in zip(specs[0::2], specs[1::2])]

    def run_round(self, specs: tuple[MemberSpec, ...]) -> list[Op]:
        return [op for spec in specs for op in self._member(spec)]

    def check_round(self, specs: tuple[MemberSpec, ...], ops: list[Op]) -> None:
        # by position: a seeded member may equal a probe member
        first_probe = len(specs) - len(self.PROBE_MEMBERS)
        for k, spec in enumerate(specs):
            self._check_member(spec, ops[4 * k:4 * k + 4], k >= first_probe)

    def _member(self, spec: MemberSpec) -> list[Op]:
        dn = self.dn
        alpha = dn.Alpha(spec.alpha)
        build = _timed(Op("build"), dn.random_member, alpha, spec.seed, spec.degree,
                       spec.zero_f2)
        ops = [build]
        for name in ("T43", "T44", "T45"):
            op = Op(name)
            if build.error is not None:
                op.error = "member build failed"
            else:
                verifier = getattr(dn, "verify_" + name)
                _timed(op, verifier, build.output, alpha, self.plan, workers=1)
            ops.append(op)
        if build.error is None:
            # keep only the construction record, not the series
            build.output = build.output.provenance, build.output.second_deriv_origin()
        return ops

    def _check_member(self, spec: MemberSpec, ops: list[Op], probed: bool) -> None:
        from disknorms.theorems import BOUND_TOL
        build, t43, t44, t45 = ops
        if build.error is not None:
            return
        prov, f2 = build.output
        oracle = oracles.MemberOracle(oracles.SelfMap.of_member(prov), spec.alpha)
        c, s = oracle.c, abs(math.sin(spec.alpha))
        gamma = oracle.phi.gamma()
        if not _close(prov.gamma, gamma, 1e-12):
            build.problems.append(f"gamma {prov.gamma!r} != |phi(0)| = {gamma!r}")
        if not _close(f2, 2 * oracle.b * oracle.phi.value(0j)[0], 1e-10):
            build.problems.append(f"f''(0) = {f2!r} != 2b phi(0)")
        printed = {"T43": 2 * c, "T44": 2 * c * (2 - c),
                   "T45": 2 * c * (1 + (1 - c) * (1 + gamma) / (1 - gamma))}
        probe_max = {}
        for op in (t43, t44, t45):
            if op.error is not None:
                continue
            rep = op.output
            weighted = oracle.weighted_pre if op.name == "T43" else oracle.weighted_schwarzian
            if probed:
                if weighted not in probe_max:
                    probe_max[weighted] = max(weighted(z) for z in self.probe)
                if probe_max[weighted] > rep.estimate + ORACLE_TOL:
                    op.problems.append(f"estimate {rep.estimate!r} below the probe "
                                       f"maximum {probe_max[weighted]!r}")
            gated = op.name != "T45" and not spec.zero_f2
            if rep.status == "precondition_unmet" and not gated:
                op.problems.append(f"member not certified: {rep.details}")
                continue
            if gated and (rep.status != "precondition_unmet" or "f''(0)" not in rep.details):
                op.problems.append(f"f''(0) != 0 but status {rep.status}")
            if not _close(rep.bound, printed[op.name], 1e-12):
                op.problems.append(f"bound {rep.bound!r} != printed {printed[op.name]!r}")
            exact = weighted(_witness(rep))
            if not _close(rep.estimate, exact, ORACLE_TOL):
                op.problems.append(f"estimate {rep.estimate!r} vs exact {exact!r} at witness")
            if op.name == "T43":
                if spec.zero_f2 and (rep.status != "pass" or rep.estimate > 2 * c + BOUND_TOL):
                    op.problems.append(f"T43 {rep.status} with estimate {rep.estimate!r}")
                continue
            corrected = 2 * c * (1 + s * (1 + gamma) ** 2)
            if rep.estimate > corrected + BOUND_TOL:
                op.problems.append(f"estimate {rep.estimate!r} above the |sin a| bound")
            if gated:
                continue
            threshold = rep.bound + BOUND_TOL
            if abs(exact - threshold) > ORACLE_TOL:
                expected = "fail" if exact > threshold else "pass"
                if rep.status != expected:
                    op.problems.append(f"verdict {rep.status}, exact value {exact!r} "
                                       f"vs threshold {threshold!r}")


class ClosedFormSweep:
    """Norms and margins of closed-form catalog entries; no series involved.

    Each round takes the next seeded alpha of a jittered grid over
    (-1.3, 1.3): both norms of RobertsonExtremal and SpiralPower, the
    margin of SpiralPower, and both norms of Koebe and HalfPlane.  Every
    round also takes both norms of RobertsonExtremal and SpiralPower at
    the fixed ROTATIONS (alpha, theta), zeta = e^{i theta}, whose maxima
    lie between the scan grid's rays.  The first two pass today.  The last,
    half a grid step off a ray, fails every time: all four estimates
    exceed the exact norm, by 1.8e-4 to 8.3e-4.  Rotations are not seeded:
    at some alphas and zetas the estimates fall short by more than the
    check allows, so failures would depend on the seed.
    """

    name = "closed-form-sweep"
    trace_rounds = 16
    ROTATIONS = ((0.6, 1.0), (-1.1, 0.3), (0.6, math.pi / 128))

    def __init__(self, dn, cli, out_dir: str):
        from disknorms import derivatives
        self.dn = dn
        self.derivatives = derivatives
        self.plan = dn.SamplingPlan()

    def make_inputs(self, seed: int) -> list[float]:
        rng = random.Random(f"{self.name}:{seed}")
        return [-1.3 + 2.6 * (k + rng.random()) / 24 for k in range(24)]

    def _norms(self, fn, alpha: float, tag: str = "") -> list[Op]:
        d = self.derivatives
        ops = []
        for which, k, evaluator in (("pre", 1, d.pre_schwarzian_evaluator),
                                    ("schwarzian", 2, d.schwarzian_evaluator)):
            op = _timed(Op(f"{fn.name}:{which}{tag}"), self.dn.weighted_sup, evaluator(fn),
                        k, self.plan, r_limit=fn.radius_limit, workers=1)
            op.output = (alpha, op.output)
            ops.append(op)
        return ops

    def run_round(self, alpha: float) -> list[Op]:
        dn = self.dn
        a = dn.Alpha(alpha)
        spiral = dn.SpiralPower(a)
        ops = self._norms(dn.RobertsonExtremal(a), alpha)
        ops += self._norms(spiral, alpha)
        margin = _timed(Op("spiral-power:margin"), dn.robertson_margin, spiral, a,
                        self.plan, workers=1)
        margin.output = (alpha, margin.output)
        ops.append(margin)
        ops += self._norms(dn.Koebe(), alpha)
        ops += self._norms(dn.HalfPlane(), alpha)
        for rot_alpha, theta in self.ROTATIONS:
            a, zeta, tag = dn.Alpha(rot_alpha), cmath.exp(1j * theta), f"@{theta:.6g}"
            ops += self._norms(dn.RobertsonExtremal(a, zeta), rot_alpha, tag)
            ops += self._norms(dn.SpiralPower(a, zeta), rot_alpha, tag)
        return ops

    @staticmethod
    def exact_norm(name: str, alpha: float) -> float:
        """Exact weighted norms; a rotation zeta leaves them unchanged."""
        c, s = math.cos(alpha), abs(math.sin(alpha))
        return {"robertson-extremal:pre": 2 * c,
                "robertson-extremal:schwarzian": 2 * c * (2 - c),
                "spiral-power:pre": 4 * c, "spiral-power:schwarzian": 8 * c * s,
                "koebe:pre": 6.0, "koebe:schwarzian": 6.0,
                "halfplane:pre": 4.0, "halfplane:schwarzian": 0.0}[name]

    def check_round(self, alpha: float, ops: list[Op]) -> None:
        for op in ops:
            if op.error is not None:
                continue
            op_alpha, out = op.output
            if op.name == "spiral-power:margin":
                # Re e^{ia}(1 + z f''/f') has infimum 0, approached at z -> 1
                if not -MEMBERSHIP_TOL <= out.inf_value <= CLOSED_FORM_BELOW:
                    op.problems.append(f"margin {out.inf_value!r} outside [-1e-6, 1e-3]")
                continue
            want = self.exact_norm(op.name.split("@")[0], op_alpha)
            if not want - CLOSED_FORM_BELOW <= out.value <= want + CLOSED_FORM_ABOVE:
                op.problems.append(f"estimate {out.value!r} vs exact {want!r}")


class CliPointwise:
    """``disknorms verify T41|T42d|T42g|LemA --fn random ...`` in process.

    T42d, T42g and LemA take the round's seeded member.  T41 takes the two
    fixed T41_MEMBERS in every round.  The first passes today, with a
    smallest residual of 3.7e-4, so a less accurate residual shows.  The
    second gets a false ``fail`` every time: its residuals come from the
    separately truncated series of f' and f'', which at the guard radius put
    res_ii at -3.3e-3 where the exact value is +5.0e-3.  Seeded T41 members
    are left out because about one in thirty of them shows the same fault,
    so failures would depend on the seed.
    """

    name = "cli-pointwise"
    trace_rounds = 2
    workers = 2
    T41_MEMBERS = (MemberSpec(1.25, 13, 1, False),
                   MemberSpec(0.2352468531045333, 1316016691, 1, False))

    def __init__(self, dn, cli, out_dir: str):
        self.dn = dn
        self.cli = cli
        self.report_path = os.path.join(out_dir, "report.json")
        self.first_report = None

    def make_inputs(self, seed: int) -> list[MemberSpec]:
        return member_specs(f"{self.name}:{seed}", 64)

    def commands(self, spec: MemberSpec) -> list[tuple[str, MemberSpec]]:
        return [*(("T41", m) for m in self.T41_MEMBERS),
                ("T42d", spec), ("T42g", spec), ("LemA", spec)]

    def argv(self, theorem: str, spec: MemberSpec, workers: int, out: str) -> list[str]:
        argv = ["verify", theorem, "--fn", "random", "--seed", str(spec.seed),
                "--alpha", repr(spec.alpha), "--degree", str(spec.degree),
                "--workers", str(workers), "--format", "json", "--out", out]
        if spec.zero_f2 or theorem in ("T42d", "T42g"):
            argv.append("--zero-f2")
        return argv

    def run_round(self, spec: MemberSpec) -> list[Op]:
        ops = []
        for theorem, member in self.commands(spec):
            argv = self.argv(theorem, member, self.workers, self.report_path)
            op = _timed(Op(theorem), self.cli.main, argv)
            if op.error is None:
                code = op.output
                if code in (64, 65):
                    op.error = f"exit code {code}"
                else:
                    with open(self.report_path, "rb") as fh:
                        raw = fh.read()
                    if self.first_report is None and theorem == "T42d":
                        self.first_report = (member, raw)
                    op.output = (code, json.loads(raw))
            ops.append(op)
        return ops

    def check_round(self, spec: MemberSpec, ops: list[Op]) -> None:
        from disknorms.theorems import DISTORTION_TOL, GROWTH_TOL
        for op, (theorem, member) in zip(ops, self.commands(spec)):
            if op.error is not None:
                continue
            code, doc = op.output
            rep = doc["results"]
            if EXIT_FOR_STATUS.get(rep["status"]) != code:
                op.problems.append(f"exit code {code} for status {rep['status']}")
            zero_f2 = member.zero_f2 or theorem in ("T42d", "T42g")
            oracle = oracles.MemberOracle(
                oracles.SelfMap.of_member(self.dn.random_member(
                    self.dn.Alpha(member.alpha), member.seed, member.degree, zero_f2).provenance),
                member.alpha)
            # the sample points cmd_verify draws for the pointwise verifiers
            cfg = doc["config"]
            points = self.dn.random_disk_points(cfg["points"], seed=cfg["seed"] + 1, radius=0.9)
            if op.name == "T41":
                self._check_t41(op, rep, oracle)
            elif op.name == "LemA":
                self._check_lema(op, rep, oracle, points)
            elif op.name == "T42d":
                self._check_pointwise(op, rep, points, oracle, DISTORTION_TOL, lambda z: (
                    oracle.abs_fprime(z), oracles.distortion_bounds(abs(z), oracle.c)))
            else:
                self._check_pointwise(op, rep, points, oracle, GROWTH_TOL, lambda z: (
                    oracle.abs_f(z), oracles.growth_bounds(abs(z), oracle.c)))

    @staticmethod
    def _number(details: str, label: str) -> float:
        tail = details.split(label, 1)[1].strip()
        return float(tail.split()[0].rstrip(",;"))

    def _check_t41(self, op: Op, rep: dict, oracle) -> None:
        if rep["status"] != "pass":
            op.problems.append(f"T41 {rep['status']}: {rep['details']}")
        if rep["status"] == "precondition_unmet":
            return
        res = oracle.residuals(_witness(rep))
        if min(res) < 0.0:
            op.problems.append(f"oracle residual {min(res)!r} < 0")
        reported = min(self._number(rep["details"], "ii ="),
                       self._number(rep["details"], "iii ="))
        if not _close(reported, min(res), RESIDUAL_TOL):
            op.problems.append(f"residual minimum {reported!r} vs exact {min(res)!r}")

    def _check_lema(self, op: Op, rep: dict, oracle, points) -> None:
        if rep["status"] != "pass":
            op.problems.append(f"LemA {rep['status']}: {rep['details']}")
            return
        worst = max(oracle.schur_excess(z) for z in points)
        reported = self._number(rep["details"], "violation")
        if worst > 0.0 or not _close(reported, worst, 1e-6 + 1e-5 * abs(worst)):
            op.problems.append(f"Schur excess {reported!r} vs exact {worst!r}")

    def _check_pointwise(self, op: Op, rep: dict, points, oracle, tol, exact) -> None:
        if rep["status"] == "precondition_unmet":
            op.problems.append(f"{op.name} precondition unmet: {rep['details']}")
            return
        worst = 0.0
        for z in points:
            value, (lower, upper) = exact(z)
            worst = max(worst, lower - value, value - upper)
        if not _close(rep["max_violation"], worst, POINTWISE_TOL):
            op.problems.append(f"max_violation {rep['max_violation']!r} vs exact {worst!r}")
        if abs(worst - tol) > POINTWISE_TOL:
            expected = "fail" if worst > tol else "pass"
            if rep["status"] != expected:
                op.problems.append(f"verdict {rep['status']}, exact violation {worst!r}")

    def check_run(self) -> list[str]:
        """One report must not depend on --workers (checked outside the timed loop)."""
        if self.first_report is None:
            return []
        spec, raw = self.first_report
        path = self.report_path + ".workers1"
        code = self.cli.main(self.argv("T42d", spec, 1, path))
        if code in (64, 65):
            return [f"T42d with --workers 1 exited {code}"]
        with open(path, "rb") as fh:
            if fh.read() != raw:
                return ["T42d report differs between --workers 2 and --workers 1"]
        return []


WORKLOADS = {w.name: w for w in (MemberVerdicts, ClosedFormSweep, CliPointwise)}
