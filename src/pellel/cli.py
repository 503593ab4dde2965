"""Experiment runner.

Configuration comes from a JSON file plus a handful of overriding flags;
each run writes <out>/report.json with the full numeric record and
<out>/table.csv with one fixed-layout row per grid (converge mode: one
row per spacing with an empirical order column).

    pellel run --config cfg.json [--mode M] [--h H] [--out DIR] [--seed S]

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 invalid
configuration (an unreadable config or form table, or an output directory
that cannot be made, included), 3 a solver stage failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import forms, pipeline, verify
from .domain import Domain, Grid, Weight, boundary_quadrature, build_grid, lattice_ranges
# not called here (the reports carry c), but kept as this module's name: the
# benchmark tracer in perfbench/tracing.py wraps pellel.cli.estimate_c
from .domain import estimate_c  # noqa: F401
from .errors import PellelError, ResolutionError, UnsupportedDomainError, ValidationError
from .forms import ComplexForm, RealForm
from .pipeline import DEFAULT_SLACK

CSV_COLUMNS = ["mode", "N", "h", "c", "norm_f2", "norm_u2", "ratio",
               "bound", "residual", "order"]

SOLVE_MODES = ("pipeline", "poincare", "dbar")
MODES = SOLVE_MODES + ("verify", "converge")
VERIFY_SUITES = ("all", "dalpha", "boundary", "bochner", "basic")


def _is_number(value, kinds=(int, float)) -> bool:
    """isinstance test that takes no JSON true/false, NaN or Infinity for a number."""
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def _is_nonnegative(value, kinds=(int, float)) -> bool:
    return _is_number(value, kinds) and value >= 0


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
    return all(_is_nonnegative(v, int) for v in parts)


def _dzbar_1(grid: Grid, value) -> ComplexForm:
    """value dzbar_1, a (0,1)-form in C^n for any n."""
    g = ComplexForm.zeros(grid, (0, 1))
    g.coeffs[0] = value
    return g


# the form presets by name, each with its builder on a grid
FORM_PRESETS = {
    "i_dz_dzbar": pipeline.standard_11_form,
    "dx1_dx2": lambda grid: RealForm.from_components(grid, 2, {(1, 2): 1.0}),
    "d_x1x2": lambda grid: RealForm.from_components(grid, 1, {
        (1,): lambda x: x[1], (2,): lambda x: x[0]}),
    "dzbar": lambda grid: _dzbar_1(grid, 1.0),
    "2zbar_dzbar": lambda grid: _dzbar_1(grid, 2.0 * (grid.coords[0] - 1j * grid.coords[1])),
}

# the fields of the domain, weight and form specs, by kind, with their type
# tests; a form spec is of kind "table" when it names a table, else "preset"
SPEC_FIELDS = {
    "domain": {"ball": {"radius": _is_number, "dim": _is_count, "center": _is_numbers},
               "ellipsoid": {"semi_axes": _is_numbers, "center": _is_numbers}},
    "weight": {"abs2": {}, "zero": {}, "quadratic": {"matrix": _is_square_matrix}},
    "form": {"preset": {"preset": lambda v: isinstance(v, str) and v in FORM_PRESETS},
             "table": {"table": lambda v: isinstance(v, str), "degree": _is_degree}},
}
DEFAULT_KIND = {"domain": "ball", "weight": "abs2"}
REQUIRED_FIELD = {"ellipsoid": "semi_axes", "quadratic": "matrix", "preset": "preset"}

# each config field with its default and its test; a field the config
# leaves out takes its default, and every field it gives is tested, in
# every mode
CONFIG_FIELDS = {
    "mode": ("pipeline", lambda v: v in MODES),
    "domain": ({"kind": "ball", "radius": 1.0, "dim": 2}, lambda v: _check_spec("domain", v)),
    "weight": ({"kind": "abs2"}, lambda v: _check_spec("weight", v)),
    "form": ({"preset": "i_dz_dzbar"}, lambda v: _check_spec("form", v)),
    "h": (1.0 / 32, _is_positive),
    "h_values": (None, lambda v: v is None or (_is_numbers(v) and min(v) > 0)),
    "margin": (0.0, _is_nonnegative),
    "tol": (1e-10, _is_positive),
    "maxiter": (None, lambda v: v is None or _is_count(v)),
    "slack": (DEFAULT_SLACK, _is_nonnegative),
    "seed": (0, lambda v: _is_nonnegative(v, int)),
    "out": ("out", lambda v: isinstance(v, str)),
    "dump_forms": (False, lambda v: isinstance(v, bool)),
    "verify_suite": ("all", lambda v: v in VERIFY_SUITES),
    "converge_mode": ("pipeline", lambda v: v in SOLVE_MODES),
}


def _check_fields(where: str, fields: dict, tests: dict) -> None:
    """Raise ValidationError unless every field has a test and passes it."""
    for key, value in fields.items():
        if key not in tests:
            raise ValidationError(f"unknown field {key!r} in the {where}")
        if not tests[key](value):
            raise ValidationError(
                f"{key} in the {where} has the wrong type, shape or value: {value!r}")


def _check_spec(name: str, spec) -> bool:
    """True if spec is an object of a known kind whose fields are known, well
    typed and complete for that kind; else raise ValidationError."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{name} must be an object, got {spec!r}")
    fields = dict(spec)
    if name == "form":
        kind = "table" if "table" in spec else "preset"
    else:
        kind = fields.pop("kind", DEFAULT_KIND[name])
        if not isinstance(kind, str) or kind not in SPEC_FIELDS[name]:
            raise ValidationError(f"unknown {name} kind {kind!r}")
    _check_fields(f"{kind} {name} spec", fields, SPEC_FIELDS[name][kind])
    required = REQUIRED_FIELD.get(kind)
    if required is not None and required not in spec:
        raise ValidationError(f"{kind} {name} spec needs {required!r}")
    return True


def load_config(path: str | None, overrides: dict) -> argparse.Namespace:
    """The config of the JSON file at path (of no file if path is None or
    empty) with overrides on top, every field checked and every field left
    out at its default.  The domain spec must make a domain, h and each of
    h_values a grid that fits in an array on it (domain.lattice_ranges), and
    a form table must have a readable header line, in every mode."""
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: unreadable config ({exc})") from None
        if not isinstance(data, dict):
            raise ValidationError(f"config must be a JSON object, got {data!r}")
    data.update(overrides)
    _check_fields("config", data, {name: test for name, (_, test) in CONFIG_FIELDS.items()})
    # each config gets its own copy of a default spec, which a caller may change
    cfg = argparse.Namespace(**{
        name: data.get(name, dict(default) if isinstance(default, dict) else default)
        for name, (default, _) in CONFIG_FIELDS.items()})
    # in every mode: each spacing must size a grid, and a form table must be readable
    domain = _build_domain(cfg.domain)
    for h in [cfg.h] + (cfg.h_values or []):
        lattice_ranges(domain, h)
    if "table" in cfg.form:
        forms._table_header(cfg.form["table"])
    return cfg


def _build_domain(spec: dict) -> Domain:
    """The domain of a spec that _check_spec accepted."""
    center = spec.get("center")
    if spec.get("kind", DEFAULT_KIND["domain"]) == "ball":
        return Domain.ball(spec.get("radius", 1.0), center=center, dim=spec.get("dim"))
    return Domain.ellipsoid(spec["semi_axes"], center=center)


def _build_weight(spec: dict, dim: int) -> Weight:
    """The weight of a spec that _check_spec accepted."""
    kind = spec.get("kind", DEFAULT_KIND["weight"])
    if kind == "abs2":
        return Weight.abs2(dim)
    if kind == "zero":
        return Weight.zero(dim)
    matrix = np.asarray(spec["matrix"], dtype=float)
    if matrix.shape != (dim, dim):
        raise ValidationError(f"quadratic weight on a {dim}-dimensional domain "
                              f"needs a {dim} x {dim} matrix, got {matrix.shape}")
    return Weight.quadratic(matrix)


def _build_form(spec: dict, grid: Grid, mode: str):
    """The form of a spec that _check_spec accepted."""
    if "table" in spec:
        kind = spec.get("degree", 2 if mode == "poincare" else
                        ((0, 1) if mode == "dbar" else (1, 1)))
        return forms.from_csv(grid, kind, spec["table"])
    return FORM_PRESETS[spec["preset"]](grid)


def _single_run(cfg: argparse.Namespace, h: float) -> dict:
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
    else:
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

    return {"row": row, "checks": checks, "detail": rep.to_dict(), "solution": u}


def _verify_run(cfg: argparse.Namespace) -> dict:
    domain = _build_domain(cfg.domain)
    weight = _build_weight(cfg.weight, domain.dim)
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
                margin, ref = verify.check_basic_estimate(alpha, weight, domain, grid)
                results["basic_estimate"] = {"margin": margin, "reference": ref}
                checks.append(("basic_estimate", margin >= -0.02 * ref,
                               f"margin {margin:.3e} vs -2% of {ref:.3e}"))
    return {"results": results, "checks": checks}


def _write_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=float))


def _write_table(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})


def run(cfg: argparse.Namespace) -> tuple[dict, int]:
    """Execute one configuration of load_config; returns (report dict, exit code)."""
    t0 = time.perf_counter()
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"out {cfg.out!r}: cannot make the directory ({exc})") from None
    rows: list[dict] = []
    checks: list[tuple[str, bool, str]] = []
    detail: dict = {}

    if cfg.mode == "verify":
        res = _verify_run(cfg)
        checks = res["checks"]
        detail = res["results"]
    elif cfg.mode == "converge":
        h_values = cfg.h_values or [cfg.h, cfg.h / 2, cfg.h / 4]
        prev_h = prev_residual = None
        for h in h_values:
            single = _single_run(cfg, h)
            row = single["row"]
            if prev_residual and row["residual"] > 0 and h != prev_h:
                row["order"] = math.log(prev_residual / row["residual"]) / math.log(prev_h / h)
            prev_h, prev_residual = h, row["residual"]
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
        "config": vars(cfg),
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
        flags = {name: getattr(args, name) for name in ("mode", "h", "out", "seed")}
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        report, code = run(cfg)
    except (ValidationError, UnsupportedDomainError, ResolutionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PellelError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    print(f"report: {Path(cfg.out) / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
