"""The four benchmark workloads.

Each workload turns a seed into a fixed list of jobs (one job answers one
question), sets up the state the jobs need, runs one job, and checks the
job's output.  ``jobs(seed)`` is a pure function of the seed: the library
only ever sees the inputs generated here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import scipy.linalg

from injop.atlas import build_atlas, global_invert
from injop.certify import (
    VERDICT_CERTIFIED,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_NO_COUNTEREXAMPLE,
    SINGULAR_TOL,
    certify_bijective_activation,
    certify_relu_dss,
    collision_threshold,
    verify_collision,
)
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    block_matrix,
    zero_bias,
)
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs, h1_norm
from injop.nonlin import (
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
    VolterraKernel,
    WireKernel,
    estimate_contraction,
    invert_banach,
)
from injop.reduction import lift_to_injective
from injop import serialize

BASIS = BasisSpec("fourier", (0.0, 1.0))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


@dataclass
class Job:
    kind: str
    data: Dict[str, Any]
    key: str = ""  # jobs with the same non-empty key are identical repeats


@dataclass
class State:
    jobs: List[Job]
    extra: Dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _interleave(*groups):
    """Round-robin merge, so every stretch of the list mixes job kinds."""
    out, groups = [], [list(g) for g in groups]
    while any(groups):
        for g in groups:
            if g:
                out.append(g.pop(0))
    return out


def _layer(rng, n, d_in, d_out, act, bias_scale=0.3):
    c = rng.standard_normal((n, n, d_out, d_in)) / math.sqrt(n * d_in)
    bias = SpectralCoeffs(BASIS, n, bias_scale * rng.standard_normal((d_out, n)))
    return FiniteRankLayer(d_in, d_out, n, c, bias, act)


def _network(rng, n, d_in, width, d_out, act):
    """Depth-3 network: two hidden layers with ``act``, linear last layer."""
    dims = [d_in, width, width, d_out]
    return FiniteRankNetwork([
        _layer(rng, n, dims[i], dims[i + 1], act if i < 2 else Activation())
        for i in range(3)
    ])


def _smooth(rng, grid, modes=6, scale=0.5):
    return scale * rng.standard_normal(modes) @ BASIS.eval_modes(grid.nodes, modes)


def _oracle_injective(mat) -> bool:
    """gesvd-driver singular values; the library uses the gesdd path."""
    if mat.shape[0] < mat.shape[1]:
        return False
    svals = scipy.linalg.svd(mat, compute_uv=False, lapack_driver="gesvd")
    return bool(svals[0] > 0.0 and svals[-1] > SINGULAR_TOL * svals[0])


class Workload:
    name = ""
    setup_repeats = 5  # set-ups per untraced run; the best is reported

    def jobs(self, seed: int) -> List[Job]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> State:
        return State(self.jobs(seed))

    def run(self, job: Job, state: State):
        raise NotImplementedError

    def check(self, job: Job, out, state: State) -> Optional[str]:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError

    def warm_up(self, state: State):
        """Run the first job once, untimed, so lazy first-call costs are
        paid during set-up."""
        self.run(state.jobs[0], state)

    def calibrate(self, state: State) -> Dict[str, float]:
        return {}

    def finish(self, state: State):
        """Called once after the last job of the run."""


# ---------------------------------------------------------------------------
# certify


def certify_calibration() -> Dict[str, float]:
    """ms per trial of one DSS search at N=8, d=4, M=512."""
    layer = _layer(_rng(0, 9), 8, 4, 4, Activation("relu"), 0.5)
    t0 = time.perf_counter()
    report = certify_relu_dss(layer, Grid(0.0, 1.0, 512), trials=40, seed=0)
    return {"calib.certify_trial_ms": 1e3 * (time.perf_counter() - t0) / report.trials}


class CertifyWorkload(Workload):
    name = "certify"
    grid_size = 512
    trials = 8

    def jobs(self, seed):
        def relu(i, d):
            rng = _rng(seed, 1, d, i)
            return Job("relu", {"layer": _layer(rng, 8, d, d, Activation("relu"), 0.5),
                                "seed": int(rng.integers(1 << 30))})

        def planted(i, d):
            # Every channel's bias sits far below zero, so at the zero probe
            # no channel is active and any kernel direction collides.
            rng = _rng(seed, 2, d, i)
            layer = _layer(rng, 8, d, d, Activation("relu"), 0.5)
            layer.bias.coeffs[:, 0] -= 50.0
            return Job("planted", {"layer": layer, "seed": int(rng.integers(1 << 30))})

        def leaky(i):
            rng = _rng(seed, 3, i)
            n, d = 16, 4
            c = rng.standard_normal((n, n, d, d))
            deficient = i % 3 == 0
            if deficient:
                mat = c.transpose(1, 2, 0, 3).reshape(n * d, n * d).copy()
                mat[:, -1] = mat[:, 0]
                c = mat.reshape(n, d, n, d).transpose(2, 0, 1, 3)
            act = Activation("leaky_relu", float(rng.uniform(0.1, 0.5)))
            layer = FiniteRankLayer(d, d, n, c, zero_bias(BASIS, d, n), act)
            return Job("leaky", {"layer": layer, "deficient": deficient})

        return _interleave(
            [relu(i, 2) for i in range(14)],
            [relu(i, 4) for i in range(14)],
            [planted(i, 2 + 2 * (i % 2)) for i in range(8)],
            [leaky(i) for i in range(12)],
        )

    def setup(self, seed, workdir):
        return State(self.jobs(seed), {"grid": Grid(0.0, 1.0, self.grid_size)})

    def run(self, job, state):
        layer = job.data["layer"]
        if job.kind == "leaky":
            return certify_bijective_activation(layer)
        return certify_relu_dss(layer, state.extra["grid"], trials=self.trials,
                                seed=job.data["seed"])

    def check(self, job, report, state):
        layer, grid = job.data["layer"], state.extra["grid"]
        if job.kind == "planted" and report.verdict != VERDICT_COUNTEREXAMPLE:
            return f"planted collision not found: {report.verdict}"
        if job.kind == "leaky":
            expected = _oracle_injective(block_matrix(layer))
            if (report.verdict == VERDICT_CERTIFIED) != expected:
                return f"verdict {report.verdict} disagrees with gesvd oracle ({expected})"
        elif report.verdict not in (VERDICT_COUNTEREXAMPLE, VERDICT_NO_COUNTEREXAMPLE):
            return f"unexpected ReLU verdict {report.verdict}"
        if report.verdict == VERDICT_COUNTEREXAMPLE:
            v1, v2 = report.witness
            residual = verify_collision(layer, v1, v2, grid)
            if not residual <= collision_threshold(layer, v1, grid):
                return f"witness does not collide: residual {residual:.3e}"
        return None

    def calibrate(self, state):
        return certify_calibration()


# ---------------------------------------------------------------------------
# lift


class LiftWorkload(Workload):
    name = "lift"
    grid_size = 512
    n_inputs = 6

    #: (N, d_in, width, d_out) of explicit lifts, lifted dim 16 to 864.  The
    #: median falls among the dim-96 lifts and the tail among the dim-320
    #: ones, so each sits inside a group of like jobs.
    TINY = [(4, 1, 2, 1), (4, 2, 3, 1), (4, 2, 2, 2)]
    SMALL = [(4, 3, 4, 3), (8, 2, 4, 2)]
    MEDIUM = [(8, 4, 4, 4)]
    LARGE = [(8, 6, 6, 6), (12, 4, 4, 6), (6, 8, 8, 8)]
    RANDOMIZED = [3]

    def jobs(self, seed):
        def make(tag, i, shape, mode, randomized=False):
            rng = _rng(seed, tag, i)
            n, d_in, width, d_out = shape
            act = (Activation("relu") if mode == "relu"
                   else Activation("leaky_relu", float(rng.uniform(0.2, 0.8))))
            net = _network(rng, n, d_in, width, d_out, act)
            inputs = []
            for _ in range(self.n_inputs):
                coeffs = rng.standard_normal((d_in, n))
                inputs.append(SpectralCoeffs(BASIS, n, coeffs / max(1.0, np.linalg.norm(coeffs))))
            return Job("randomized" if randomized else "explicit",
                       {"net": net, "mode": mode, "inputs": inputs,
                        "seed": int(rng.integers(1 << 30))})

        def group(tag, shapes, count):
            return [make(tag, i, shapes[i % len(shapes)], ("relu", "injective")[i % 2])
                    for i in range(count)]

        return _interleave(
            group(1, self.TINY, 8), group(5, self.SMALL, 14), group(2, self.MEDIUM, 8),
            group(3, self.LARGE, 3),
            [make(4, n, (n, 1, 2, 1), "relu", True) for n in self.RANDOMIZED])

    def setup(self, seed, workdir):
        return State(self.jobs(seed), {"grid": Grid(0.0, 1.0, self.grid_size)})

    def run(self, job, state):
        grid = state.extra["grid"]
        res = lift_to_injective(job.data["net"], mode=job.data["mode"], alpha=0.1,
                                seed=job.data["seed"],
                                randomized=job.kind == "randomized")
        outs = [(res.apply_original(a, grid), res.apply(a, grid), res.apply_augmented(a, grid))
                for a in job.data["inputs"]]
        return res, outs

    def check(self, job, out, state):
        res, outs = out
        n = res.n
        for f_out, g_out, h_out in outs:
            gap = math.sqrt(float(np.sum((g_out.coeffs[:, :n] - f_out.coeffs) ** 2)
                                  + np.sum(g_out.coeffs[:, n:] ** 2)))
            bound = 5.0 * res.eps0 * h_out.l2_norm() + 1e-8
            if not gap <= bound:
                return f"closeness gap {gap:.3e} > bound {bound:.3e}"
        inputs = job.data["inputs"]
        for i in range(len(inputs)):
            for j in range(i):
                gap_in = np.linalg.norm(inputs[i].coeffs - inputs[j].coeffs)
                gap_out = np.linalg.norm(outs[i][1].coeffs - outs[j][1].coeffs)
                if gap_in > 0 and not gap_out / gap_in > 0.0:
                    return f"inputs {i} and {j} collide under the lift"
        return None

    def calibrate(self, state):
        """Seconds for one randomized lift at N=4, d=1, three layers."""
        net = _network(_rng(0, 9), 4, 1, 2, 1, Activation("relu"))
        t0 = time.perf_counter()
        lift_to_injective(net, mode="relu", randomized=True, seed=0)
        return {"calib.randomized_lift_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# invert


def _contractive_ops(grid):
    """Sigmoid-sum u(y), Volterra sigmoid and wire operators with sampled
    contraction estimates below 1/2.  They are fixed, not seeded, so a
    job's cost depends on the seed only through its target."""
    kernels = {
        "sigmoid_sum": SigmoidSumKernel([(0.3, 1.2, 0.3), (-0.2, 0.8, -0.2)], signature="u(y)"),
        "volterra": VolterraKernel(0.8, "sigmoid"),
        "wire": WireKernel(3.0, [(0.3, 1.0, 0.1)], signature="u(y)"),
    }
    ops = {}
    for kind, kernel in kernels.items():
        op = NonlinearIntegralOperator(grid, kernel, w=1.0)
        rho = estimate_contraction(op)
        if not rho < 0.5:
            raise RuntimeError(f"{kind} operator at M={grid.size} has contraction {rho}")
        ops[kind] = op
    return ops


def _atlas_problem(grid):
    """A sigmoid-sum operator whose contraction estimate exceeds 1, and
    eight anchor inputs for its Newton atlas."""
    op = NonlinearIntegralOperator(
        grid, SigmoidSumKernel([(2.5, 1.0, 0.0)], signature="u(y)"), w=1.0)
    wave = np.sin(2 * np.pi * grid.nodes)
    anchors = [GridFunction(grid, level + 0.3 * wave) for level in np.linspace(-2.0, 2.0, 8)]
    return op, anchors


class InvertWorkload(Workload):
    name = "invert"
    setup_repeats = 3
    grids = (512, 1024)
    banach_per_op = {512: 8, 1024: 1}
    perturbation = 0.01
    atlas_in_cell = 16
    atlas_shifted = 8

    def jobs(self, seed):
        # Targets are built at set-up from these preimage recipes, because
        # they need the operators.
        banach = []
        for size in self.grids:
            grid = Grid(0.0, 1.0, size)
            for k, kind in enumerate(("sigmoid_sum", "volterra", "wire")):
                for i in range(self.banach_per_op[size]):
                    # A fixed shape plus a small seeded perturbation, at a
                    # fixed L2 size.  The shape sets the iteration count
                    # (5 to 10 at M=512); the seed moves it by at
                    # most one.  Fully seeded shapes changed the median
                    # job by 10% from seed to seed.
                    shape = _rng(0, 7, size, k, i)
                    u = (_smooth(shape, grid) + 0.3 * shape.normal()
                         + self.perturbation * _smooth(_rng(seed, 7, size, k, i), grid))
                    u *= 0.8 / np.sqrt(np.sum(grid.weights * u**2))
                    banach.append(Job("banach", {"op": (size, kind), "u_true": u}))
        atlas = []
        grid = Grid(0.0, 1.0, 512)
        for i in range(self.atlas_in_cell + self.atlas_shifted):
            rng = _rng(seed, 8, i)
            shifted = i >= self.atlas_in_cell
            wave = np.cos(2 * np.pi * grid.nodes + rng.uniform(0.0, 2 * np.pi))
            delta = 0.05 * wave + 0.2 if shifted else 0.02 * wave
            atlas.append(Job("atlas", {"anchor": i % 8, "delta": delta}))
        return _interleave(banach, atlas)

    def setup(self, seed, workdir):
        jobs = self.jobs(seed)
        ops = {}
        for size in self.grids:
            for kind, op in _contractive_ops(Grid(0.0, 1.0, size)).items():
                ops[(size, kind)] = op
        atlas_op, anchors = _atlas_problem(Grid(0.0, 1.0, 512))
        rho = estimate_contraction(atlas_op)
        if not rho > 1.0:
            raise RuntimeError(f"atlas operator is contractive ({rho}); Banach would do")
        atlas = build_atlas(atlas_op, anchors, ell0=4, eps1=0.25)
        for job in jobs:
            if job.kind == "banach":
                op = ops[job.data["op"]]
                u_true = GridFunction(op.grid, job.data["u_true"])
            else:
                op = atlas_op
                u_true = GridFunction(op.grid, anchors[job.data["anchor"]].values[0]
                                      + job.data["delta"])
            job.data["target"] = (op, u_true, op.apply(u_true))
        return State(jobs, {"atlas": atlas, "atlas_op": atlas_op, "anchors": anchors})

    def run(self, job, state):
        op, _u_true, z = job.data["target"]
        if job.kind == "banach":
            return invert_banach(op, z, tol=1e-10, max_iter=200)
        return global_invert(state.extra["atlas"], op, z, tol=1e-9, max_iter=80)

    def check(self, job, out, state):
        op, u_true, _z = job.data["target"]
        u, trace = out
        if not trace.converged:
            return f"{job.kind} inversion did not converge in {trace.iterations} iterations"
        grid = op.grid
        if job.kind == "banach":
            gap = float(np.sqrt(np.sum(grid.weights * (u.values - u_true.values) ** 2)))
            if not gap <= 1e-8:
                return f"Banach L2 gap {gap:.3e} > 1e-8"
        else:
            err = h1_norm(grid, u.values - u_true.values)
            if not err <= 1e-6:
                return f"atlas H1 error {err:.3e} > 1e-6"
        return None

    def calibrate(self, state):
        """Single calls: 8-anchor atlas builds at M=512 and M=1024, one
        Banach solve at M=512."""
        out = {}
        for size in self.grids:
            op, anchors = _atlas_problem(Grid(0.0, 1.0, size))
            t0 = time.perf_counter()
            build_atlas(op, anchors, ell0=4, eps1=0.25)
            out[f"calib.build_atlas_{size}_s"] = time.perf_counter() - t0
        job = next(j for j in state.jobs if j.kind == "banach")
        op, _u, z = job.data["target"]
        t0 = time.perf_counter()
        invert_banach(op, z, tol=1e-10, max_iter=200)
        out["calib.banach_512_ms"] = 1e3 * (time.perf_counter() - t0)
        return out


# ---------------------------------------------------------------------------
# cli


def file_digests(dirpath: str) -> Dict[str, str]:
    """sha256 of every file directly in a directory, by file name."""
    out = {}
    if os.path.isdir(dirpath):
        for name in sorted(os.listdir(dirpath)):
            path = os.path.join(dirpath, name)
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@dataclass
class CliResult:
    code: int
    files: Dict[str, str]  # output file name -> sha256
    stderr: str


class CliWorkload(Workload):
    name = "cli"
    grid_size = 256
    repeats = 5

    def __init__(self, store_path: Optional[str] = None, code_id: str = ""):
        # Output digests of earlier runs of the same library code on the same
        # input files live in ``store_path``, so determinism is checked
        # across runs too.
        self.store_path = store_path
        self.code_id = code_id

    #: (label, argv, accepted exit codes); paths are relative to the work dir.
    #: A random ReLU net may certify either way; the exit code must then
    #: agree across repeats.
    COMMANDS = [
        ("certify", ["certify", "--net", "relu_net.json", "--trials", "12",
                     "--grid-size", "256"], (0, 2)),
        ("lift", ["lift", "--net", "relu_net.json", "--alpha", "0.1"], (0,)),
        ("invert_banach", ["invert", "--op", "banach_op.json", "--target",
                           "banach_target.csv", "--tol", "1e-10"], (0,)),
        ("invert_atlas_csv", ["invert", "--op", "atlas_op.json", "--target",
                              "atlas_target.csv", "--method", "atlas", "--anchors",
                              "anchors", "--tol", "1e-9"], (0,)),
        ("invert_atlas_saved", ["invert", "--op", "atlas_op.json", "--target",
                                "atlas_target.csv", "--method", "atlas", "--anchors",
                                "saved_atlas", "--tol", "1e-9"], (0,)),
        ("truncate", ["truncate", "--op", "table_op.json", "--rank", "8"], (0,)),
        ("demo_volterra", ["demo", "volterra", "--grid-size", "256"], (0,)),
    ]

    def inputs(self, seed):
        """Objects written to the work dir at set-up, by file name."""
        grid = Grid(0.0, 1.0, self.grid_size)
        rng = _rng(seed, 10)
        relu = _network(rng, 8, 2, 2, 1, Activation("relu"))
        banach_op = _contractive_ops(grid)["sigmoid_sum"]
        atlas_op, anchors = _atlas_problem(grid)
        u_true = anchors[int(rng.integers(8))].values[0] + 0.02 * rng.normal() * np.cos(
            2 * np.pi * grid.nodes)
        table_grid = Grid(0.0, 1.0, 128)
        x = table_grid.nodes
        table = np.exp(-np.abs(x[:, None] - x[None, :]) * float(rng.uniform(1.0, 4.0)))
        return {
            "relu_net.json": relu,
            "banach_op.json": banach_op,
            "banach_target.csv": banach_op.apply(GridFunction(grid, _smooth(rng, grid))),
            "atlas_op.json": atlas_op,
            "atlas_target.csv": atlas_op.apply(GridFunction(grid, u_true)),
            "anchors": anchors,
            "table_op.json": NonlinearIntegralOperator(table_grid, LinearTableKernel(table)),
        }

    def jobs(self, seed):
        return [Job(label, {"argv": argv, "codes": codes}, key=label)
                for _ in range(self.repeats) for label, argv, codes in self.COMMANDS]

    def setup(self, seed, workdir):
        if os.path.exists(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        for name, obj in self.inputs(seed).items():
            path = os.path.join(workdir, name)
            if isinstance(obj, FiniteRankNetwork):
                serialize.save_network(obj, path)
            elif isinstance(obj, NonlinearIntegralOperator):
                serialize.save_operator(obj, path)
            elif isinstance(obj, GridFunction):
                serialize.write_grid_function_csv(obj, path)
            else:  # anchor inputs: a CSV directory and a saved atlas
                os.makedirs(path)
                for j, v in enumerate(obj):
                    serialize.write_grid_function_csv(v, os.path.join(path, f"a{j}.csv"))
                atlas_op = serialize.load_operator(os.path.join(workdir, "atlas_op.json"))
                serialize.save_atlas(build_atlas(atlas_op, obj),
                                     os.path.join(workdir, "saved_atlas"))
        store = {}
        if self.store_path and os.path.isfile(self.store_path):
            with open(self.store_path) as fh:
                store = json.load(fh)
        inputs = hashlib.sha256()
        for dirpath, _dirs, _files in sorted(os.walk(workdir)):
            for name, digest_ in sorted(file_digests(dirpath).items()):
                inputs.update(f"{os.path.relpath(dirpath, workdir)}/{name}:{digest_}".encode())
        key = f"{self.code_id}:{inputs.hexdigest()[:16]}"
        earlier = {label: (code, files) for label, (code, files)
                   in store.get(key, {}).items()}
        return State(self.jobs(seed), {"workdir": workdir, "digests": {}, "earlier": earlier,
                                       "store": store, "key": key, "trace": False, "runs": 0})

    def warm_up(self, state):
        pass  # every command starts a fresh process anyway

    def calibrate(self, state):
        # The certify workload is not in BENCHMARK.json; its baseline row
        # is taken here, in the one gated workload that runs certify.
        return certify_calibration()

    def run(self, job, state):
        workdir = state.extra["workdir"]
        state.extra["runs"] += 1
        tag = f"{job.kind}-{state.extra['runs']}"
        out_dir = os.path.join("out", tag)
        stats_path = os.path.join(workdir, f"stats-{tag}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), stats_path,
               "1" if state.extra["trace"] else "0", tag, "--",
               *job.data["argv"], "--out-dir", out_dir]
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        wall = time.perf_counter() - t0
        try:
            with open(stats_path) as fh:
                stats = json.load(fh)
            os.remove(stats_path)
        except (OSError, ValueError):
            stats = {}
        full_out = os.path.join(workdir, out_dir)
        files = file_digests(full_out)
        shutil.rmtree(full_out, ignore_errors=True)
        if state.extra["trace"] and "trace" in stats:
            tracer = state.extra["tracer"]
            tracer.merge(stats["trace"], job=tracer.job)
            tracer.counters["cli.import_s"] += stats["import_s"]
            tracer.counters["cli.process_s"] += wall - stats["main_s"]
        return CliResult(proc.returncode, files, proc.stderr[-400:])

    def check(self, job, res, state):
        if res.code not in job.data["codes"]:
            return (f"{job.kind}: exit code {res.code}, expected one of "
                    f"{job.data['codes']}: {res.stderr.strip()}")
        if "report.json" not in res.files:
            return f"{job.kind}: no report.json written"
        seen = state.extra["digests"].setdefault(job.kind, (res.code, res.files))
        if seen != (res.code, res.files):
            return f"{job.kind}: outputs differ between repeats of the same command"
        earlier = state.extra["earlier"].get(job.kind)
        if earlier is not None and earlier != (res.code, res.files):
            return f"{job.kind}: outputs differ from an earlier run of the same code"
        return None

    def finish(self, state):
        if not self.store_path:
            return
        store = state.extra["store"]
        store[state.extra["key"]] = {**{k: list(v) for k, v in state.extra["earlier"].items()},
                                     **{k: list(v) for k, v in state.extra["digests"].items()}}
        os.makedirs(os.path.dirname(self.store_path), exist_ok=True)
        with open(self.store_path, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)


WORKLOADS = {wl.name: wl for wl in (CertifyWorkload, LiftWorkload, InvertWorkload, CliWorkload)}
