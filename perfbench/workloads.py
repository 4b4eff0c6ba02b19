"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (the seed only sets the ARPACK
start vector, ``SolveOptions.seed`` or ``solver.seed`` in the CLI config),
runs one pass of its operations in ``run_pass`` and checks that pass's
outputs in ``check`` against values computed in :mod:`reference`.  A pass
returns a :class:`Pass`; an operation that raises (or a CLI command that
exits non-zero) is recorded as failed with its error text.  ``reference``
is imported only by the checks, so that the set-up processes timed for
``setup_s`` load nothing the program itself does not.

When a :class:`spans.Tracer` is given, the pass opens spans around its own
calls into ``wgcutoff``; everything inside those calls is traced by the
patches the tracer installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import load_spans

#: eps=(d, alpha, zz), mu=(d, alpha, zz); satisfies b*eps + a*mu = 0.
MEDIUM = {"eps": {"d": 2.0, "alpha": -1.0, "zz": 1.0},
          "mu": {"d": 1.0, "alpha": 0.5, "zz": 2.0}}
FORMULATIONS = ("scalar_te", "scalar_tm", "vector_te", "vector_tm")
SOLVER_NAMES = {"scalar_te": "solve_te_scalar", "scalar_tm": "solve_tm_scalar",
                "vector_te": "solve_te_vector", "vector_tm": "solve_tm_vector"}

#: Documented floors (acceptance criteria 08 and 09, SolveOptions.residual_tol).
RESIDUAL_FLOOR = 1e-8
MULTIPLIER_FLOOR = 1e-6
DIVERGENCE_FLOOR = 1e-8


@dataclass
class Pass:
    ops: list = field(default_factory=list)        # (name, error text or None)
    times: dict = field(default_factory=dict)      # breakdown, seconds
    digests: dict = field(default_factory=dict)    # output name -> sha256
    results: dict = field(default_factory=dict)    # kept for check()
    wall: float = 0.0
    peak_rss_mb: float | None = None               # CLI passes: largest child

    def add_time(self, key, seconds):
        self.times[key] = self.times.get(key, 0.0) + seconds


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _medium():
    import wgcutoff as wg
    return wg.MediumSpec.from_json_dict(MEDIUM)


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.abs(b)


class Workload:
    """Inputs live on the instance; ``workdir`` is a scratch directory."""

    #: Operation name -> start of the error text of a known fault.
    expected_failures = {}
    #: Fresh set-up processes per run; ``setup_s`` is their median.  One
    #: takes under a second, so seven add about 5 s to a run.
    setup_samples = 7
    #: Fewest passes per run.  The two workloads whose pass takes about
    #: 10 s run three: pass times swing by 20-30% within a run on this host,
    #: and the median of three follows those swings far less than one pass.
    passes = 1

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def probe_command(self):
        """Command whose wall time is one set-up sample; None: run.py --probe."""
        return None

    def warm_up(self, seed):
        """First-call costs a library user pays once, outside the passes."""


class _SolveWorkload(Workload):
    """Shared pass logic: time each solver call and sort it by route."""

    def warm_up(self, seed):
        """One shift-invert solve per formulation on a tiny mesh."""
        import wgcutoff as wg
        tiny = wg.generate_rectangle(1.2e-3, 1.0e-3, 8, 8)
        opts = wg.SolveOptions(seed=seed, dense_cutoff=0)
        for name in FORMULATIONS:
            getattr(wg, SOLVER_NAMES[name])(tiny, self.medium, 4, opts)

    def _solve(self, tracer, out, key, name, mesh, q):
        import wgcutoff as wg
        solver = getattr(wg, SOLVER_NAMES[name])
        route = "vector_solve_s" if name.startswith("vector") else "scalar_solve_s"
        start = time.perf_counter()
        try:
            with _span(tracer, "modes.solve"):
                solution = solver(mesh, self.medium, q, self.options)
        except Exception as exc:  # recorded as a failed operation
            solution, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        out.add_time(route, time.perf_counter() - start)
        out.ops.append((key, error))
        if solution is not None:
            out.digests[key] = _digest(solution.cutoffs)
            out.results[key] = solution


def _attempt(out, key, fn, *args):
    """Run one operation; record it, failed with its error text if it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # recorded as a failed operation
        out.ops.append((key, f"{type(exc).__name__}: {exc}"))
        return None
    out.ops.append((key, None))
    return result


class RectFine(_SolveWorkload):
    """1.2 x 1.0 mm rectangle, 128 x 128 cells, four formulations, 4 modes."""

    name = "rect-fine"
    A, B, N, MODES = 1.2e-3, 1.0e-3, 128, 4
    #: P1 and lowest-order edge elements on h = a/128: every one of the
    #: first four cut-offs is within 0.1% of the exact value.
    TOL = 1e-3

    def setup(self, seed, tracer=None):
        import wgcutoff as wg
        self.medium = _medium()
        self.options = wg.SolveOptions(seed=seed)
        self.mesh = wg.generate_rectangle(self.A, self.B, self.N, self.N)

    def run_pass(self, tracer=None):
        out = Pass()
        for name in FORMULATIONS:
            self._solve(tracer, out, name, name, self.mesh, self.MODES)
        return out

    def check(self, out):
        import reference
        errors = []
        exact = reference.tm_rectangle(self.A, self.B, MEDIUM["eps"]["d"],
                                       MEDIUM["eps"]["zz"], self.MODES)
        res = out.results
        if "scalar_tm" in res:
            st = res["scalar_tm"].cutoffs
            if (st < exact * (1 - 1e-12)).any():
                errors.append(f"scalar TM below the exact cut-offs: {st} < {exact}")
            if (_rel(st, exact) > self.TOL).any():
                errors.append(f"scalar TM off exact by {_rel(st, exact).max():.2e}")
        if "vector_tm" in res:
            vt = res["vector_tm"].nonzero_cutoffs
            if (_rel(vt, exact) > self.TOL).any():
                errors.append(f"vector TM off exact by {_rel(vt, exact).max():.2e}")
        if "scalar_te" in res and "vector_te" in res:
            d = _rel(res["vector_te"].nonzero_cutoffs, res["scalar_te"].cutoffs)
            if (d > self.TOL).any():
                errors.append(f"TE routes disagree by {d.max():.2e}")
        for name, solution in res.items():
            if solution.tem_count != 0:
                errors.append(f"{name}: tem_count {solution.tem_count} != 0")
            if solution.cutoffs.size != self.MODES:
                errors.append(f"{name}: {solution.cutoffs.size} cut-offs")
        out.results = {}
        return errors


class CoaxLadder(_SolveWorkload):
    """Coax annulus r = 1..2 mm, 4 x 48 cells, refined to L3, 6 modes."""

    name = "coax-ladder"
    passes = 3
    #: Unequilibrated saddle pencil: ARPACK returns negative eigenvalues.
    expected_failures = {"L3 vector_tm": "EigenSolveError: negative eigenvalue"}
    R1, R2, NR, NTHETA, LEVELS, MODES = 1e-3, 2e-3, 4, 48, 4, 6
    #: Polygonal boundary with 48 segments: geometric error well below 1%.
    ORACLE_TOL = 1e-2

    def setup(self, seed, tracer=None):
        import wgcutoff as wg
        self.medium = _medium()
        self.options = wg.SolveOptions(seed=seed)
        self.family = [wg.generate_annulus(self.R1, self.R2, self.NR, self.NTHETA)]
        for _ in range(self.LEVELS - 1):
            with _span(tracer, "mesh.refine"):
                self.family.append(wg.refine_uniform(self.family[-1]))

    def run_pass(self, tracer=None):
        import wgcutoff as wg
        out = Pass()
        for level, mesh in enumerate(self.family):
            for name in FORMULATIONS:
                self._solve(tracer, out, f"L{level} {name}", name, mesh, self.MODES)

        def diagnose(solution):
            return (wg.multiplier_diagnostics(solution).values,
                    wg.constraint_residuals(solution), wg.verify_tem(solution))

        start = time.perf_counter()
        diagnostics = {}
        with _span(tracer, "modes.diagnostics"):
            for key, solution in out.results.items():
                if solution.formulation.is_vector:
                    found = _attempt(out, f"diagnostics {key}", diagnose, solution)
                    if found is not None:
                        diagnostics[key] = found
        out.add_time("diagnostics_s", time.perf_counter() - start)
        start = time.perf_counter()
        for name in ("scalar_te", "scalar_tm"):
            key = f"trend {name}"
            with _span(tracer, "crossval"):
                report = _attempt(out, key, wg.convergence_trend, name, self.family,
                                  self.medium, self.MODES, self.options)
            if report is not None:
                out.results[key] = report
                out.digests[key] = _digest(report.cutoffs)
        out.add_time("crossval_s", time.perf_counter() - start)
        out.results["diagnostics"] = diagnostics
        return out

    def check(self, out):
        import reference
        errors = []
        res = out.results
        levels = range(self.LEVELS)

        def cut(level, name):
            solution = res.get(f"L{level} {name}")
            return None if solution is None else solution.nonzero_cutoffs

        for name in ("scalar_te", "scalar_tm"):
            rows = [cut(level, name) for level in levels]
            for level in levels[1:]:
                if rows[level] is None or rows[level - 1] is None:
                    continue
                if (rows[level] > rows[level - 1] * (1 + 1e-12)).any():
                    errors.append(f"{name} rises from L{level - 1} to L{level}")
            report = res.get(f"trend {name}")
            if report is not None and set(report.trends) != {"decreasing"}:
                errors.append(f"convergence_trend {name}: {report.trends}")

        for family in ("te", "tm"):
            gaps = []
            for level in levels:
                s, v = cut(level, f"scalar_{family}"), cut(level, f"vector_{family}")
                if s is not None and v is not None:
                    gaps.append((level, _rel(v, s).max()))
            for (l0, g0), (l1, g1) in zip(gaps, gaps[1:]):
                if not g1 < g0:
                    errors.append(f"{family.upper()} route gap does not tighten "
                                  f"L{l0}->L{l1}: {g0:.2e} -> {g1:.2e}")

        top = cut(self.LEVELS - 1, "scalar_tm")
        if top is not None:
            exact = reference.tm_annulus(self.R1, self.R2, MEDIUM["eps"]["d"],
                                         MEDIUM["eps"]["zz"], self.MODES)
            if (_rel(top, exact) > self.ORACLE_TOL).any():
                errors.append(f"L3 scalar TM off the annulus by {_rel(top, exact).max():.2e}")

        for key, (mult, div, tem) in res["diagnostics"].items():
            if (mult > MULTIPLIER_FLOOR).any():
                errors.append(f"{key}: multiplier diagnostic {mult.max():.2e}")
            if (div > DIVERGENCE_FLOOR).any():
                errors.append(f"{key}: divergence {div.max():.2e}")
            if not tem.passed:
                errors.append(f"{key}: verify_tem {tem}")
        for key, solution in res.items():
            if not key.startswith("L"):
                continue
            if (solution.residuals > RESIDUAL_FLOOR).any():
                errors.append(f"{key}: residual {solution.residuals.max():.2e}")
            expected_tem = 1 if solution.formulation.is_vector else 0
            if solution.tem_count != expected_tem:
                errors.append(f"{key}: tem_count {solution.tem_count} != {expected_tem}")
            if solution.nonzero_cutoffs.size != self.MODES:
                errors.append(f"{key}: {solution.nonzero_cutoffs.size} nonzero cut-offs")
        out.results = {}
        return errors


class MeshIO(Workload):
    """The coax refined L0 -> L5, exported to text and imported back."""

    name = "mesh-io"
    passes = 3
    R1, R2, NR, NTHETA, LEVELS = 1e-3, 2e-3, 4, 48, 5

    def setup(self, seed, tracer=None):
        import wgcutoff as wg
        self.base = wg.generate_annulus(self.R1, self.R2, self.NR, self.NTHETA)
        #: sha256 of a triangle array -> its reference counts.  Every pass
        #: rebuilds the same meshes, and counting them took 2.8 s a pass.
        self.counted = {}

    def warm_up(self, seed):
        import wgcutoff as wg
        wg.import_mesh(wg.export_mesh(wg.refine_uniform(self.base)))

    def _step(self, tracer, out, key, span, fn, *args):
        start = time.perf_counter()
        with _span(tracer, span):
            result = _attempt(out, key, fn, *args)
        out.add_time(span.split(".")[1] + "_s", time.perf_counter() - start)
        return result

    def run_pass(self, tracer=None):
        """Refine, export, import; a failed step ends the pass (its successors
        have no input), and the checks cover what was made."""
        import wgcutoff as wg
        out = Pass()
        mesh = self.base
        levels = [mesh]
        text = back = None
        for level in range(1, self.LEVELS + 1):
            mesh = self._step(tracer, out, f"refine L{level}", "mesh.refine",
                              wg.refine_uniform, mesh)
            if mesh is None:
                break
            levels.append(mesh)
        if mesh is not None:
            text = self._step(tracer, out, "export", "mesh.export", wg.export_mesh, mesh)
        if text is not None:
            back = self._step(tracer, out, "import", "mesh.import", wg.import_mesh, text)
            out.digests["export"] = hashlib.sha256(text.encode()).hexdigest()
        out.results = {"levels": [(m.triangles, m.num_nodes, m.num_edges,
                                   m.num_triangles, m.num_boundary_components,
                                   m.euler_deficit()) for m in levels],
                       "mesh": mesh, "back": back}
        return out

    def check(self, out):
        import reference
        errors = []
        counts = []
        for level, (tris, v, e, t, b, deficit) in enumerate(out.results["levels"]):
            key = hashlib.sha256(np.ascontiguousarray(tris).tobytes()).digest()
            if key not in self.counted:
                self.counted[key] = reference.mesh_counts(tris)
            ref = self.counted[key]
            counts.append(ref)
            if (v, e, t, b) != (ref["V"], ref["E"], ref["T"], ref["B"]):
                errors.append(f"L{level}: program counts {(v, e, t, b)} != {ref}")
            if ref["V"] - ref["E"] + ref["T"] - (2 - ref["B"]) != 0 or deficit != 0:
                errors.append(f"L{level}: Euler deficit is not 0")
            if ref["B"] != 2:
                errors.append(f"L{level}: {ref['B']} boundary components, not 2")
        for level in range(1, len(counts)):
            prev, cur = counts[level - 1], counts[level]
            if cur["V"] != prev["V"] + prev["E"] or cur["T"] != 4 * prev["T"]:
                errors.append(f"L{level}: V or T does not follow from L{level - 1}")
        mesh, back = out.results["mesh"], out.results["back"]
        if back is None:
            out.results = {}
            return errors
        for attr in ("nodes", "triangles", "edges", "tri_edges", "tri_edge_signs",
                     "boundary_node", "boundary_edge", "boundary_component"):
            a, b = getattr(mesh, attr), getattr(back, attr)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                errors.append(f"import(export(m)).{attr} differs from m.{attr}")
        if mesh.h != back.h:
            errors.append("import(export(m)).h differs")
        out.results = {}
        return errors


class CliReadme(Workload):
    """The README annulus through ``wgcutoff solve``, ``crossval``, ``fields``."""

    name = "cli-readme"
    COMMANDS = ("solve", "crossval", "fields")
    R1, R2, NR, NTHETA, MODES = 1e-3, 2e-3, 12, 144, 4
    ORACLE_TOL = 1e-2

    def __init__(self, root: Path, workdir: Path):
        super().__init__(root, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self, seed, tracer=None):
        self.config = {
            "medium": MEDIUM,
            "geometry": {"kind": "annulus", "r1": self.R1, "r2": self.R2,
                         "nr": self.NR, "ntheta": self.NTHETA},
            "refinements": 1,
            "formulations": list(FORMULATIONS),
            "num_modes": self.MODES,
            "omega": 6.5e10,
            "crossval": {"rtol": 0.005, "count": self.MODES},
            "solver": {"seed": seed},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "run.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.pass_count = 0

    def probe_command(self):
        return [sys.executable, "-c", "import wgcutoff.cli"], self.env

    def run_pass(self, tracer=None):
        self.pass_count += 1
        outdir = self.workdir / f"pass{self.pass_count}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        out = Pass(peak_rss_mb=0.0)
        for command in self.COMMANDS:
            argv = [command, "--config", str(self.config_path), "--out", str(outdir)]
            spans_path = outdir / f"spans_{command}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "wgcutoff.cli", *argv]
            else:
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                       str(spans_path), *argv]
            with open(outdir / f"{command}.log", "wb") as log:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                        stdout=log, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - start
            # reaped by wait4 for its rusage; tell Popen so it does not wait again
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.add_time(f"cli_{command}_s", elapsed)
            out.peak_rss_mb = max(out.peak_rss_mb, usage.ru_maxrss / 1024.0)
            error = None if code == 0 else f"exit code {code}: " + (
                outdir / f"{command}.log").read_text(errors="replace")[-300:]
            out.ops.append((command, error))
            if tracer is not None and spans_path.exists():
                records = json.loads(spans_path.read_text())
                tracer.spans.extend(load_spans(records))
        csv = (outdir / "cutoffs.csv").read_bytes() if (outdir / "cutoffs.csv").exists() else b""
        out.digests["cutoffs.csv"] = hashlib.sha256(csv).hexdigest()
        out.results = {"outdir": outdir}
        return out

    def _mesh_sizes(self):
        v0 = (self.NR + 1) * self.NTHETA
        t0 = 2 * self.NR * self.NTHETA
        e0 = v0 + t0  # Euler: V - E + T = 2 - B with B = 2
        return v0 + e0, 4 * t0

    def check(self, out):
        errors = []
        outdir = out.results["outdir"]
        try:
            errors += self._check_outputs(outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"unreadable CLI output: {type(exc).__name__}: {exc}")
        shutil.rmtree(outdir, ignore_errors=True)
        out.results = {}
        return errors

    def _check_outputs(self, outdir):
        import reference
        errors = []
        rows = {}
        lines = (outdir / "cutoffs.csv").read_text().splitlines()
        for line in lines[1:]:
            formulation, h, index, kt, is_tem = line.split(",")
            rows.setdefault((formulation, float(h)), []).append((float(kt), is_tem == "true"))
        hs = sorted({h for _, h in rows}, reverse=True)
        if len(hs) != 2:
            errors.append(f"cutoffs.csv has {len(hs)} levels, not 2")
        exact = reference.tm_annulus(self.R1, self.R2, MEDIUM["eps"]["d"],
                                     MEDIUM["eps"]["zz"], self.MODES)
        for (formulation, h), values in rows.items():
            tem = sum(flag for _, flag in values)
            want = 1 if formulation.startswith("vector") else 0
            if tem != want:
                errors.append(f"{formulation} h={h}: {tem} TEM rows, not {want}")
            if len(values) - tem != self.MODES:
                errors.append(f"{formulation} h={h}: {len(values) - tem} modes, "
                              f"not {self.MODES}")
            if formulation == "scalar_tm":
                kt = np.array([k for k, _ in values])
                if (_rel(kt, exact) > self.ORACLE_TOL).any():
                    errors.append(f"scalar_tm h={h} off the annulus by {_rel(kt, exact).max():.2e}")

        fine = {f: [k for k, _ in rows.get((f, hs[-1]), [])] for f in FORMULATIONS}
        fine_nonzero = {f: [k for k, tem in rows.get((f, hs[-1]), []) if not tem]
                        for f in FORMULATIONS}
        report = json.loads((outdir / "crossval.json").read_text())
        if report.get("all_passed") is not True:
            errors.append("crossval.json: all_passed is not true")
        for pair in report["pairs"]:
            for side in ("a", "b"):
                name = pair[f"formulation_{side}"]
                values = pair[f"cutoffs_{side}"]
                if values != fine_nonzero[name][:len(values)]:
                    errors.append(f"crossval.json {name} cut-offs differ from cutoffs.csv")

        nodes, cells = self._mesh_sizes()
        written = sorted(outdir.glob("fields_*.vtk"))
        if len(written) != 18:
            errors.append(f"{len(written)} VTK files, not 18")
        title = re.compile(r"^(\w+) mode (\d+) k_t=(\S+) rad/m$")
        for path in written:
            with open(path, encoding="utf-8") as handle:
                head = [next(handle) for _ in range(5)]
                text_cells = None
                for line in handle:
                    if line.startswith("CELLS "):
                        text_cells = line.split()
                        break
            if head[4].split() != ["POINTS", str(nodes), "double"]:
                errors.append(f"{path.name}: {head[4].strip()} != POINTS {nodes}")
            if text_cells != ["CELLS", str(cells), str(4 * cells)]:
                errors.append(f"{path.name}: {text_cells} != CELLS {cells}")
            match = title.match(head[1].strip())
            if not match or float(match[3]) != fine[match[1]][int(match[2])]:
                errors.append(f"{path.name}: title cut-off differs from cutoffs.csv")
        return errors


WORKLOADS = {w.name: w for w in (RectFine, CoaxLadder, MeshIO, CliReadme)}
