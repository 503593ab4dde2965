"""Experiment runner.

Configuration comes from a JSON file plus a handful of overriding flags;
each run writes <out>/report.json with the full numeric record and
<out>/table.csv with one fixed-layout row per grid (converge mode: one
row per spacing with an empirical order column).

    pellel run --config cfg.json [--mode M] [--h H] [--out DIR] [--seed S]

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 invalid
configuration, 3 a solver stage failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forms, pipeline, verify
from .domain import Domain, Grid, Weight, boundary_quadrature, build_grid
# not called here (the reports carry c), but kept as this module's name: the
# benchmark tracer in perfbench/tracing.py wraps pellel.cli.estimate_c
from .domain import estimate_c  # noqa: F401
from .errors import PellelError, SolverError, ValidationError
from .forms import ComplexForm, RealForm
from .pipeline import DEFAULT_SLACK

CSV_COLUMNS = ["mode", "N", "h", "c", "norm_f2", "norm_u2", "ratio",
               "bound", "residual", "order"]

MODES = ("pipeline", "poincare", "dbar", "verify", "converge")
VERIFY_SUITES = ("all", "dalpha", "boundary", "bochner", "basic")


def _is_number(value, kinds=(int, float)) -> bool:
    """isinstance test that does not take a JSON true/false for a number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_number(value, int) and value > 0


def _is_numbers(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(map(_is_number, value))


def _is_square_matrix(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(
        _is_numbers(row) and len(row) == len(value) for row in value)


def _is_degree(value) -> bool:
    """A degree p >= 0 or a bidegree [p, q]."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    return all(_is_number(v, int) and v >= 0 for v in parts)


# the fields of the domain, weight and form specs, by kind, with their type
# tests; a form spec is of kind "table" when it names a table, else "preset"
SPEC_FIELDS = {
    "domain": {"ball": {"radius": _is_number, "dim": _is_count, "center": _is_numbers},
               "ellipsoid": {"semi_axes": _is_numbers, "center": _is_numbers}},
    "weight": {"abs2": {}, "zero": {}, "quadratic": {"matrix": _is_square_matrix}},
    "form": {"preset": {"preset": lambda v: isinstance(v, str)},
             "table": {"table": lambda v: isinstance(v, str), "degree": _is_degree}},
}
DEFAULT_KIND = {"domain": "ball", "weight": "abs2"}
REQUIRED_FIELD = {"ellipsoid": "semi_axes", "quadratic": "matrix", "preset": "preset"}


def _check_spec(name: str, spec) -> None:
    """Raise ValidationError unless spec is an object of a known kind whose
    fields are known, well typed and complete for that kind."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{name} must be an object, got {spec!r}")
    if name == "form":
        kind = "table" if "table" in spec else "preset"
    else:
        kind = spec.get("kind", DEFAULT_KIND[name])
        if not isinstance(kind, str) or kind not in SPEC_FIELDS[name]:
            raise ValidationError(f"unknown {name} kind {kind!r}")
    fields = SPEC_FIELDS[name][kind]
    for key, value in spec.items():
        if key == "kind" and name != "form":
            continue
        if key not in fields:
            raise ValidationError(f"unknown field {key!r} in {kind} {name} spec")
        if not fields[key](value):
            raise ValidationError(f"{name} field {key!r} has a value of the wrong "
                                  f"type or shape: {value!r}")
    required = REQUIRED_FIELD.get(kind)
    if required is not None and required not in spec:
        raise ValidationError(f"{kind} {name} spec needs {required!r}")


@dataclass
class RunConfig:
    mode: str = "pipeline"
    domain: dict = field(default_factory=lambda: {"kind": "ball", "radius": 1.0, "dim": 2})
    weight: dict = field(default_factory=lambda: {"kind": "abs2"})
    form: dict = field(default_factory=lambda: {"preset": "i_dz_dzbar"})
    h: float = 1.0 / 32
    h_values: list | None = None
    margin: float = 0.0
    tol: float = 1e-10
    maxiter: int | None = None
    slack: float = DEFAULT_SLACK
    seed: int = 0
    out: str = "out"
    dump_forms: bool = False
    verify_suite: str = "all"
    converge_mode: str = "pipeline"

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in dataclasses.fields(RunConfig)}
        bad = set(data) - known
        if bad:
            raise ValidationError(f"unknown config fields: {sorted(bad)}")
        return RunConfig(**data)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("h", "margin", "tol", "slack"):
            if not _is_number(getattr(self, name)):
                raise ValidationError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("maxiter", "seed"):
            value = getattr(self, name)
            if not (_is_number(value, int) or name == "maxiter" and value is None):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.h_values is not None and not _is_numbers(self.h_values):
            raise ValidationError(
                f"h_values must be a nonempty list of numbers, got {self.h_values!r}")
        if not isinstance(self.dump_forms, bool):
            raise ValidationError(f"dump_forms must be true or false, got {self.dump_forms!r}")
        if self.verify_suite not in VERIFY_SUITES:
            raise ValidationError(
                f"verify_suite must be one of {VERIFY_SUITES}, got {self.verify_suite!r}")
        for name in SPEC_FIELDS:
            _check_spec(name, getattr(self, name))
        if self.h <= 0:
            raise ValidationError("h must be positive")
        if self.h_values is not None and any(h <= 0 for h in self.h_values):
            raise ValidationError("h_values must be positive")
        if self.slack < 0:
            raise ValidationError("slack must be nonnegative")
        if self.mode == "converge" and self.converge_mode not in ("pipeline", "poincare", "dbar"):
            raise ValidationError("converge_mode must be pipeline, poincare or dbar")


def _build_domain(spec: dict) -> Domain:
    kind = spec.get("kind", DEFAULT_KIND["domain"])
    center = spec.get("center")
    if kind == "ball":
        dim = spec.get("dim", len(center) if center else 2)
        if center is not None and len(center) != dim:
            raise ValidationError(f"ball center {center} does not have dim = {dim} coordinates")
        return Domain.ball(spec.get("radius", 1.0), center=center, dim=dim)
    if kind == "ellipsoid":
        return Domain.ellipsoid(spec["semi_axes"], center=center)
    raise ValidationError(f"unknown domain kind {kind!r}")


def _build_weight(spec: dict, dim: int) -> Weight:
    kind = spec.get("kind", DEFAULT_KIND["weight"])
    if kind == "abs2":
        return Weight.abs2(dim)
    if kind == "zero":
        return Weight.zero(dim)
    if kind == "quadratic":
        matrix = np.asarray(spec["matrix"], dtype=float)
        if matrix.shape != (dim, dim):
            raise ValidationError(f"quadratic weight on a {dim}-dimensional domain "
                                  f"needs a {dim} x {dim} matrix, got {matrix.shape}")
        return Weight.quadratic(matrix)
    raise ValidationError(f"unknown weight kind {kind!r}")


def _build_form(spec: dict, grid: Grid, mode: str):
    if "table" in spec:
        kind = spec.get("degree", 2 if mode == "poincare" else
                        ((0, 1) if mode == "dbar" else (1, 1)))
        return forms.from_csv(grid, kind, spec["table"])
    preset = spec.get("preset")
    if preset == "i_dz_dzbar":
        return pipeline.standard_11_form(grid)
    if preset == "dx1_dx2":
        return RealForm.from_components(grid, 2, {(1, 2): 1.0})
    if preset == "d_x1x2":
        return RealForm.from_components(grid, 1, {
            (1,): lambda x: x[1], (2,): lambda x: x[0]})
    if preset == "dzbar":
        g = ComplexForm.zeros(grid, (0, 1))
        g.coeffs[0] = 1.0
        return g
    if preset == "2zbar_dzbar":
        g = ComplexForm.zeros(grid, (0, 1))
        g.coeffs[0] = 2.0 * (grid.coords[0] - 1j * grid.coords[1])
        return g
    raise ValidationError(f"unknown form preset {preset!r}")


def _single_run(cfg: RunConfig, h: float) -> dict:
    domain = _build_domain(cfg.domain)
    domain.validate_regularity()
    grid = build_grid(domain, h, margin=cfg.margin)
    weight = _build_weight(cfg.weight, domain.dim)
    mode = cfg.mode if cfg.mode != "converge" else cfg.converge_mode
    f = _build_form(cfg.form, grid, mode)
    checks = []
    row = {"mode": mode, "N": domain.dim, "h": h}

    if mode == "pipeline":
        u, rep = pipeline.solve_poincare_lelong(f, weight, grid, tol=cfg.tol,
                                                maxiter=cfg.maxiter)
        bound = rep.bound_main * (1.0 + cfg.slack)
        checks.append(("ratio_le_bound", rep.ratio <= bound,
                       f"{rep.ratio:.6f} <= {bound:.6f}"))
        checks.append(("residual_small", rep.residual <= 1e-4,
                       f"{rep.residual:.3e} <= 1e-04"))
        row.update(c=rep.c, norm_f2=rep.norm_f2, norm_u2=rep.norm_u2,
                   ratio=rep.ratio, bound=rep.bound_main, residual=rep.residual)
    elif mode in ("poincare", "dbar"):
        solve = pipeline.solve_poincare if mode == "poincare" else pipeline.solve_dbar
        u, rep = solve(f, weight, grid, tol=cfg.tol, maxiter=cfg.maxiter)
        bound = rep.bound * (1.0 + cfg.slack)
        checks.append(("ratio_le_bound", rep.ratio <= bound,
                       f"{rep.ratio:.6f} <= {bound:.6f}"))
        checks.append(("residual_small", rep.relative_residual <= cfg.tol * 10,
                       f"{rep.relative_residual:.3e}"))
        row.update(c=rep.c, norm_f2=rep.rhs_norm2,
                   norm_u2=rep.solution_norm2, ratio=rep.ratio,
                   bound=rep.bound, residual=rep.relative_residual)
    else:
        raise ValidationError(f"unsupported single-run mode {mode!r}")

    return {"row": row, "checks": checks, "detail": rep.to_dict(), "solution": u,
            "grid": grid}


def _verify_run(cfg: RunConfig) -> dict:
    domain = _build_domain(cfg.domain)
    rng = np.random.default_rng(cfg.seed)
    suite = cfg.verify_suite
    results = {}
    checks = []
    if suite in ("all", "dalpha"):
        worst = 0.0
        for nvars in (2, 4):
            pts = rng.uniform(-1.0, 1.0, size=(nvars, 100))
            for degree in range(1, nvars + 1):
                for _ in range(25):
                    alpha = verify.random_polyform(rng, nvars, degree)
                    worst = max(worst, verify.check_dalpha_identity(alpha, pts))
        results["dalpha_max_deviation"] = worst
        checks.append(("dalpha_identity", worst <= 1e-10, f"{worst:.3e}"))
    if suite in ("all", "boundary", "bochner", "basic"):
        quad = boundary_quadrature(domain, 1024)
        weight = _build_weight(cfg.weight, domain.dim)
        g = verify.Poly.variable(2, 1)  # x1 modulation
        alpha = verify.tangential_1form(domain, g)
        if suite in ("all", "boundary"):
            dev = verify.check_boundary_identity(alpha, domain, quad)
            results["boundary_max_deviation"] = dev
            checks.append(("boundary_identity", dev <= 1e-8, f"{dev:.3e}"))
        if suite in ("all", "bochner", "basic"):
            grid = build_grid(domain, cfg.h, margin=cfg.margin)
            if suite in ("all", "bochner"):
                res = verify.check_bochner_identity(alpha, weight, domain, grid, quad)
                results["bochner"] = {"lhs": res.lhs, "rhs": res.rhs,
                                      "deviation": res.deviation}
                checks.append(("bochner_identity",
                               res.deviation <= 0.02 * max(res.lhs, res.rhs),
                               f"dev {res.deviation:.3e} of {max(res.lhs, res.rhs):.3e}"))
            if suite in ("all", "basic"):
                margin, ref = verify.check_basic_estimate(alpha, weight, domain, grid, quad)
                results["basic_estimate"] = {"margin": margin, "reference": ref}
                checks.append(("basic_estimate", margin >= -0.02 * ref,
                               f"margin {margin:.3e} vs -2% of {ref:.3e}"))
    return {"results": results, "checks": checks}


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=float))


def _write_table(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute one configuration; returns (report dict, exit code)."""
    cfg.validate()
    t0 = time.perf_counter()
    out_dir = Path(cfg.out)
    rows: list[dict] = []
    checks: list[tuple[str, bool, str]] = []
    detail: dict = {}

    if cfg.mode == "verify":
        res = _verify_run(cfg)
        checks = res["checks"]
        detail = res["results"]
    elif cfg.mode == "converge":
        h_values = cfg.h_values or [cfg.h, cfg.h / 2, cfg.h / 4]
        prev_residual = None
        for h in h_values:
            single = _single_run(cfg, h)
            row = single["row"]
            if prev_residual and row["residual"] > 0:
                row["order"] = math.log2(prev_residual / row["residual"])
            prev_residual = row["residual"]
            rows.append(row)
            checks.extend((f"{name}@h={h}", ok, msg) for name, ok, msg in single["checks"])
        detail["rows"] = rows
    else:
        single = _single_run(cfg, cfg.h)
        rows.append(single["row"])
        checks = single["checks"]
        detail = single["detail"]
        if cfg.dump_forms and single.get("solution") is not None:
            forms_dir = out_dir / "forms"
            forms_dir.mkdir(parents=True, exist_ok=True)
            forms.to_csv(single["solution"], forms_dir / "solution.csv")

    wall = time.perf_counter() - t0
    report = {
        "config": dataclasses.asdict(cfg),
        "checks": [{"name": n, "passed": bool(ok), "detail": msg}
                   for n, ok, msg in checks],
        "detail": detail,
        "wall_time_s": wall,
    }
    _write_report(out_dir / "report.json", report)
    _write_table(out_dir / "table.csv", rows)
    ok = all(c["passed"] for c in report["checks"])
    return report, 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pellel",
                                     description="grid experiments for the weighted "
                                                 "d / dbar / i-d-dbar solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", help="JSON configuration file")
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--h", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        for name in ("mode", "h", "out", "seed"):
            val = getattr(args, name)
            if val is not None:
                setattr(cfg, name, val)
        report, code = run(cfg)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, PellelError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    print(f"report: {Path(cfg.out) / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
