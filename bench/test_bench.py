"""Tests of the benchmark itself: seeded job lists and correctness checks.

Run from the repository root with ``python -m pytest bench``.
"""

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as run.py pins it; before numpy

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from injop.certify import VERDICT_COUNTEREXAMPLE, CertReport  # noqa: E402
from injop.cli import main as cli_main  # noqa: E402
from injop.finite_rank import FiniteRankLayer, FiniteRankNetwork  # noqa: E402
from injop.funcspace import GridFunction, SpectralCoeffs  # noqa: E402
from injop.nonlin import NonlinearIntegralOperator  # noqa: E402


def digest(obj) -> str:
    """sha256 over the arrays, numbers and strings inside a job list."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.shape).encode())
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, workloads.Job):
            feed(x.kind)
            feed(x.data)
        elif isinstance(x, FiniteRankLayer):
            feed([x.c, x.bias.coeffs, x.activation.kind, x.activation.a])
        elif isinstance(x, FiniteRankNetwork):
            feed(x.layers)
        elif isinstance(x, (SpectralCoeffs, GridFunction)):
            feed(x.coeffs if isinstance(x, SpectralCoeffs) else x.values)
        elif isinstance(x, NonlinearIntegralOperator):
            feed([x.grid.size, x.w_values, type(x.kernel).__name__, vars(x.kernel)])
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _job_digest(wl, seed):
    parts = [wl.jobs(seed)]
    if isinstance(wl, workloads.CliWorkload):
        parts.append(wl.inputs(seed))
    return digest(parts)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_pure_function_of_the_seed(name):
    wl = workloads.WORKLOADS[name]()
    first = _job_digest(wl, 7)
    assert _job_digest(wl, 7) == first
    assert _job_digest(wl, 8) != first


def _first(state, kind):
    return next(job for job in state.jobs if job.kind == kind)


def test_certify_check_rejects_fake_witness():
    wl = workloads.CertifyWorkload()
    state = wl.setup(0, "")
    job = _first(state, "relu")
    report = wl.run(job, state)
    assert wl.check(job, report, state) is None
    layer = job.data["layer"]
    v1 = SpectralCoeffs(layer.basis, layer.n, np.zeros((layer.d_in, layer.n)))
    v2 = SpectralCoeffs(layer.basis, layer.n, np.ones((layer.d_in, layer.n)))
    fake = CertReport(VERDICT_COUNTEREXAMPLE, report.sigma_min, report.sigma_max,
                      report.trials, witness=(v1, v2))
    assert "does not collide" in wl.check(job, fake, state)


def test_certify_check_rejects_missed_plant_and_wrong_verdict():
    wl = workloads.CertifyWorkload()
    state = wl.setup(0, "")
    planted = _first(state, "planted")
    report = wl.run(planted, state)
    assert wl.check(planted, report, state) is None
    missed = CertReport("NoCounterexampleFound", report.sigma_min, report.sigma_max,
                        report.trials)
    assert "planted" in wl.check(planted, missed, state)
    leaky = next(job for job in state.jobs if job.kind == "leaky" and job.data["deficient"])
    report = wl.run(leaky, state)
    assert wl.check(leaky, report, state) is None
    flipped = CertReport("CertifiedInjective", report.sigma_min, report.sigma_max, 0)
    assert "oracle" in wl.check(leaky, flipped, state)


def test_lift_check_rejects_collapsed_and_distant_outputs():
    wl = workloads.LiftWorkload()
    state = wl.setup(0, "")
    job = _first(state, "explicit")
    res, outs = wl.run(job, state)
    assert wl.check(job, (res, outs), state) is None
    collapsed = [outs[0], outs[0]] + outs[2:]  # two inputs, one output
    assert "collide" in wl.check(job, (res, collapsed), state)
    f, g, h = outs[0]
    far = SpectralCoeffs(g.basis, g.n, g.coeffs + 1.0)
    assert "closeness" in wl.check(job, (res, [(f, far, h)] + outs[1:]), state)


@pytest.fixture(scope="module")
def invert_state():
    wl = workloads.InvertWorkload()
    return wl, wl.setup(0, "")


@pytest.mark.parametrize("kind,error", [("banach", "L2 gap"), ("atlas", "H1 error")])
def test_invert_check_rejects_perturbed_inverse(invert_state, kind, error):
    wl, state = invert_state
    job = _first(state, kind)
    u, trace = wl.run(job, state)
    assert wl.check(job, (u, trace), state) is None
    bumped = GridFunction(u.grid, u.values + 1e-5 * np.cos(2 * np.pi * u.grid.nodes))
    assert error in wl.check(job, (bumped, trace), state)


def test_cli_check_rejects_flipped_report_byte(tmp_path):
    wl = workloads.CliWorkload()
    state = wl.setup(0, str(tmp_path / "work"))
    job = _first(state, "demo_volterra")
    res = wl.run(job, state)
    assert wl.check(job, res, state) is None
    assert wl.check(job, wl.run(job, state), state) is None

    out = tmp_path / "out"
    assert cli_main(job.data["argv"] + ["--out-dir", str(out)]) == res.code
    assert workloads.file_digests(str(out)) == res.files
    report = out / "report.json"
    data = bytearray(report.read_bytes())
    data[len(data) // 2] ^= 0x01
    report.write_bytes(bytes(data))
    corrupted = workloads.CliResult(res.code, workloads.file_digests(str(out)), "")
    assert "differ" in wl.check(job, corrupted, state)
    wrong_code = workloads.CliResult(1, res.files, "boom")
    assert "exit code" in wl.check(job, wrong_code, state)
