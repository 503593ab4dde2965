"""Seeded inputs and the three benchmark workloads.

A workload from ``make`` is built once by ``setup(span)`` and then runs ``op()``
repeatedly in a closed loop; ``check(result)`` returns the list of failed
correctness checks for one result (empty when it passed).  Every input is
generated here from the seed, so the library sees only ordinary forms,
grids and configuration files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pellel
from pellel import cli, forms, pipeline
from pellel.pipeline import DEFAULT_SLACK

DEFAULT_SEED = 0

# Ratios |u|^2/|f|^2 measured at DEFAULT_SEED on the unchanged library
# (CGLS at tol 1e-10).  A faster solver must reproduce them to 1e-6.
REFERENCE_RATIOS = {
    "disk2d_h128": (0.08173732449246623,),
    "ball4d_h8": (0.082440383130338,),
    # converge rows h = 1/16 ... 1/64, then the dbar run
    "cli_session": (0.03089626690416405, 0.026614257578966342, 0.025793918438279353,
                    0.024108602894050736, 0.023180147879296193, 0.15760995646881493),
}
REFERENCE_RTOL = 1e-6

# composed residual |i d dbar u - f| / |f| allowed per real dimension
RESIDUAL_LIMIT = {2: 1e-5, 4: 1e-3}
REALNESS_LIMIT = 1e-12


def random_cubic_hessian(rng: np.random.Generator, dim: int, scale: float = 0.5):
    """Real Hessian field of a random real cubic p on R^dim.

    p = x^T A x / 2 + T[x, x, x] / 6 with symmetric A and fully symmetric
    T, so Hess p (x) = A + T[., ., x] is linear in x.  Returns a callable
    mapping stacked coordinates (dim, ...) to (dim, dim, ...); symmetric
    entries are computed by the same operations, so they agree bitwise.
    """
    a = rng.normal(scale=scale, size=(dim, dim))
    a = 0.5 * (a + a.T)
    draw = rng.normal(scale=scale, size=(dim, dim, dim))
    t = np.empty_like(draw)
    for idx in np.ndindex(t.shape):
        t[idx] = draw[tuple(sorted(idx))]

    def hessian(coords):
        out = np.empty((dim, dim) + coords.shape[1:])
        for i in range(dim):
            for j in range(dim):
                acc = np.full(coords.shape[1:], a[i, j])
                for k in range(dim):
                    acc = acc + t[i, j, k] * coords[k]
                out[i, j] = acc
        return out

    return hessian


def seeded_11_form(grid, seed: int):
    """Closed real (1,1) right-hand side i dz1^dzbar1 + i d dbar p_seed.

    The coefficient of dz_j ^ dzbar_k of i d dbar p is i p_{z_j zbar_k} with
    p_{z_j zbar_k} = (p_{x_j x_k} + p_{y_j y_k} + i (p_{x_j y_k} - p_{y_j x_k})) / 4
    in the interleaved coordinates z_j = x_{2j-1} + i x_{2j}.  The second
    derivatives are exact, and linear, so the grid form is closed to rounding.
    """
    n = grid.dim // 2
    hess = random_cubic_hessian(np.random.default_rng(seed), grid.dim)(grid.coords)
    f = pipeline.standard_11_form(grid)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        for k in range(n):
            xk, yk = 2 * k, 2 * k + 1
            levi = 0.25 * (hess[xj, xk] + hess[yj, yk] + 1j * (hess[xj, yk] - hess[yj, xk]))
            f.coeffs[j * n + k] += 1j * levi
    return f


def _ratio_failures(ratios, reference) -> list[str]:
    if reference is None:
        return []
    out = []
    for i, (got, want) in enumerate(zip(ratios, reference)):
        if abs(got - want) > REFERENCE_RTOL * abs(want):
            out.append(f"ratio[{i}] {got!r} differs from reference {want!r}")
    return out


@dataclass
class PipelineWorkload:
    """``solve_poincare_lelong`` with phi = |x|^2 on a unit ball."""

    dim: int
    h: float
    seed: int
    reference: tuple | None = None
    tol: float = 1e-10

    def setup(self, span) -> None:
        with span("bench.setup.domain"):
            self.domain = pellel.Domain.ball(1.0, dim=self.dim)
            self.weight = pellel.Weight.abs2(self.dim)
        with span("domain.build_grid"):
            self.grid = pellel.build_grid(self.domain, self.h)
        with span("bench.setup.inputs"):
            self.f = seeded_11_form(self.grid, self.seed)

    def op(self):
        # a fresh form object per operation, so no cache keyed on the input hits
        f = pellel.ComplexForm(self.grid, (1, 1), self.f.coeffs.copy())
        return pipeline.solve_poincare_lelong(f, self.weight, self.grid, tol=self.tol)

    def check(self, result) -> list[str]:
        _, rep = result
        failures = []
        if not (rep.norm_f2 > 0.0 and rep.norm_u2 > 0.0):
            failures.append(f"zero norm: norm_f2={rep.norm_f2!r} norm_u2={rep.norm_u2!r}")
        bound = rep.bound_main * (1.0 + DEFAULT_SLACK)
        if not rep.ratio <= bound:
            failures.append(f"ratio {rep.ratio!r} exceeds {bound!r}")
        if not rep.residual <= RESIDUAL_LIMIT[self.dim]:
            failures.append(f"residual {rep.residual!r} exceeds {RESIDUAL_LIMIT[self.dim]}")
        if not rep.realness <= REALNESS_LIMIT:
            failures.append(f"realness {rep.realness!r} exceeds {REALNESS_LIMIT}")
        return failures + _ratio_failures((rep.ratio,), self.reference)

    def close(self) -> None:
        pass


@dataclass
class CliSession:
    """Three ``pellel run`` configurations executed through ``cli.main``."""

    seed: int
    workdir: Path
    reference: tuple | None = None
    h_values: tuple = (1 / 16, 1 / 24, 1 / 32, 1 / 48, 1 / 64)
    h_fine: float = 1 / 64
    configs: dict = field(default_factory=dict)

    def setup(self, span) -> None:
        with span("bench.setup.inputs"):
            self.workdir.mkdir(parents=True, exist_ok=True)
            specs = {
                "converge": {
                    "mode": "converge", "converge_mode": "pipeline",
                    "domain": {"kind": "ellipsoid", "semi_axes": [1.0, 0.6]},
                    "weight": {"kind": "quadratic", "matrix": [[1.0, 0.3], [0.3, 2.0]]},
                    "form": {"preset": "i_dz_dzbar"},
                    "h_values": list(self.h_values),
                },
                "verify": {"mode": "verify", "verify_suite": "all", "h": self.h_fine},
                "dbar": {"mode": "dbar", "form": {"preset": "2zbar_dzbar"},
                         "h": self.h_fine, "dump_forms": True},
            }
            for name, spec in specs.items():
                spec["out"] = str(self.workdir / name)
                path = self.workdir / f"{name}.json"
                path.write_text(json.dumps(spec))
                self.configs[name] = path
        self.dump_path = self.workdir / "dbar" / "forms" / "solution.csv"
        with span("domain.build_grid"):
            # the grid the dbar dump is read back on
            self.dump_grid = pellel.build_grid(pellel.Domain.ball(1.0), self.h_fine)
        self.dump_weight = pellel.Weight.abs2(2)

    def op(self):
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, path in self.configs.items():
                argv = ["run", "--config", str(path)]
                if name == "verify":
                    argv += ["--seed", str(self.seed)]
                codes[name] = cli.main(argv)
        return codes, forms.from_csv(self.dump_grid, (0, 0), self.dump_path)

    def check(self, result) -> list[str]:
        codes, readback = result
        failures = [f"{name}: exit code {code}" for name, code in codes.items() if code != 0]
        reports = {}
        for name in self.configs:
            path = self.workdir / name / "report.json"
            reports[name] = json.loads(path.read_text())
            failures += [f"{name}: {c['name']} failed ({c['detail']})"
                         for c in reports[name]["checks"] if not c["passed"]]
        rows = reports["converge"]["detail"]["rows"]
        if len(rows) != len(self.h_values):
            failures.append(f"converge: {len(rows)} rows for {len(self.h_values)} spacings")
        dbar = reports["dbar"]["detail"]
        norms = {f"converge h={r['h']}": (r["norm_f2"], r["norm_u2"]) for r in rows}
        norms["dbar"] = (dbar["rhs_norm2"], dbar["solution_norm2"])
        failures += [f"{label}: zero norm {pair}" for label, pair in norms.items()
                     if not min(pair) > 0.0]
        # the dump round-trips exactly: rewriting the read-back form gives the same bytes
        again = self.dump_path.with_name("again.csv")
        forms.to_csv(readback, again)
        if again.read_bytes() != self.dump_path.read_bytes():
            failures.append("dbar: CSV dump does not round-trip")
        # and it holds the solution the report measured
        norm = forms.norm2(readback, self.dump_weight, self.dump_grid.mask_eq)
        if not math.isclose(norm, dbar["solution_norm2"], rel_tol=1e-12):
            failures.append(f"dbar: dumped norm {norm!r} != reported {dbar['solution_norm2']!r}")
        ratios = tuple(r["ratio"] for r in rows) + (dbar["ratio"],)
        return failures + _ratio_failures(ratios, self.reference)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: Path, small: bool = False,
         reference: tuple | None = None):
    """The named workload at its benchmark size, or at a tiny size for
    smoke tests (disk at h = 1/16, C^2 ball at h = 1/4, coarse CLI sweep).
    Without a reference, the benchmark-size runs at DEFAULT_SEED compare
    their ratios with REFERENCE_RATIOS."""
    if reference is None and seed == DEFAULT_SEED and not small:
        reference = REFERENCE_RATIOS[name]
    if name == "disk2d_h128":
        return PipelineWorkload(2, 1 / 16 if small else 1 / 128, seed, reference)
    if name == "ball4d_h8":
        return PipelineWorkload(4, 1 / 4 if small else 1 / 8, seed, reference)
    if name == "cli_session":
        if small:
            return CliSession(seed, workdir, reference, h_values=(1 / 8, 1 / 12), h_fine=1 / 16)
        return CliSession(seed, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")
