"""End-to-end command tests: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import injop
from injop.cli import main
from injop.finite_rank import Activation, FiniteRankLayer, FiniteRankNetwork, zero_bias
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs
from injop.nonlin import (
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
)
from injop.serialize import (
    read_json,
    save_network,
    save_operator,
    write_grid_function_csv,
    write_json,
)

BASIS = BasisSpec("fourier", (0.0, 1.0))


def write_injective_net(path, seed=5):
    rng = np.random.default_rng(seed)
    n = 3
    layer = FiniteRankLayer(
        d_in=1, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, 1)) + 2.0 * np.eye(n)[:, :, None, None],
        bias=zero_bias(BASIS, 1, n),
        activation=Activation("leaky_relu", 0.2),
    )
    final = FiniteRankLayer(
        d_in=1, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, 1)) + 2.0 * np.eye(n)[:, :, None, None],
        bias=zero_bias(BASIS, 1, n),
    )
    save_network(FiniteRankNetwork([layer, final]), path)


def write_collapsing_relu_net(path):
    # One mode, unit kernel block, bias -2: inputs below the bias level all
    # map to the zero function after the ReLU.
    bias = SpectralCoeffs(BASIS, 1, np.array([[-2.0]]))
    layer = FiniteRankLayer(
        d_in=1, d_out=1, n=1, c=np.ones((1, 1, 1, 1)), bias=bias,
        activation=Activation("relu"),
    )
    final = FiniteRankLayer(
        d_in=1, d_out=1, n=1, c=np.ones((1, 1, 1, 1)), bias=zero_bias(BASIS, 1, 1),
    )
    save_network(FiniteRankNetwork([layer, final]), path)


def write_relu_net(path, seed=6):
    rng = np.random.default_rng(seed)
    n = 2
    hidden = FiniteRankLayer(
        d_in=1, d_out=2, n=n,
        c=rng.standard_normal((n, n, 2, 1)),
        bias=SpectralCoeffs(BASIS, n, np.full((2, n), 0.0)),
        activation=Activation("relu"),
    )
    final = FiniteRankLayer(
        d_in=2, d_out=1, n=n,
        c=rng.standard_normal((n, n, 1, 2)),
        bias=zero_bias(BASIS, 1, n),
    )
    save_network(FiniteRankNetwork([hidden, final]), path)


def write_contraction_op(path, grid):
    kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
    save_operator(NonlinearIntegralOperator(grid, kern, w=1.0), path)


def files_equal(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 64
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_unknown_flag(self, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        write_injective_net(net)
        assert main(["certify", "--net", net, "--bogus", "1"]) == 64
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert main(["certify"]) == 64
        capsys.readouterr()

    def test_atlas_without_anchors(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 33)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        target = str(tmp_path / "t.csv")
        write_grid_function_csv(GridFunction(grid, np.zeros(33)), target)
        code = main(["invert", "--op", op, "--target", target,
                     "--method", "atlas", "--out-dir", str(tmp_path)])
        assert code == 64
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestCertify:
    def test_injective_network_exits_zero(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_injective_net(net)
        out = str(tmp_path / "out")
        assert main(["certify", "--net", net, "--mode", "bijective",
                     "--out-dir", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "CertifiedInjective"
        assert len(report["layers"]) == 2

    def test_collapsing_relu_exits_two(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_collapsing_relu_net(net)
        out = str(tmp_path / "out")
        assert main(["certify", "--net", net, "--out-dir", out]) == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "CounterexampleFound"
        hit = [l for l in report["layers"] if l["verdict"] == "CounterexampleFound"]
        assert hit and "witness" in hit[0]

    def test_bijective_mode_on_relu_is_usage_error(self, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        write_collapsing_relu_net(net)
        code = main(["certify", "--net", net, "--mode", "bijective",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 64
        assert "--mode relu" in capsys.readouterr().err

    def test_missing_file_is_fault(self, tmp_path, capsys):
        code = main(["certify", "--net", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        capsys.readouterr()


class TestLift:
    def test_relu_lift(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        out = str(tmp_path / "out")
        assert main(["lift", "--net", net, "--alpha", "0.1", "--out-dir", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["eps0"] == pytest.approx(0.1, abs=1e-12)
        assert report["closeness_bound_factor"] == pytest.approx(0.5, abs=1e-12)
        assert report["order_out"] > report["order_in"]
        assert report["row_orthonormality_defect"] <= 1e-10
        lifted = read_json(os.path.join(out, "network.json"))
        assert lifted["N"] == report["order_out"]


class TestInvert:
    def test_banach_converges(self, tmp_path):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        live = NonlinearIntegralOperator(grid, kern, w=1.0)
        u_true = GridFunction(grid, np.sin(2 * np.pi * grid.nodes))
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(live.apply(u_true), target)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op, "--target", target,
                     "--tol", "1e-10", "--out-dir", out])
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "Converged"
        assert report["residual_L2"] <= 1e-10
        from injop.serialize import read_grid_function_csv

        got = read_grid_function_csv(os.path.join(out, "result.csv"), grid)
        assert np.max(np.abs(got.values - u_true.values)) <= 1e-8
        trace_lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert trace_lines[0] == "iteration,residual_L2,residual_H1,ratio"
        assert len(trace_lines) == report["iterations"] + 1

    def test_banach_divergence_exits_two(self, tmp_path):
        grid = Grid(0.0, 1.0, 65)
        op_path = str(tmp_path / "op.json")
        save_operator(
            NonlinearIntegralOperator(grid, LinearTableKernel(3.0)), op_path
        )
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.ones(65)), target)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op_path, "--target", target,
                     "--out-dir", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "Diverged"

    def test_unreadable_target_value_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.ones(65)), target)
        lines = open(target).read().splitlines()
        for bad, message in [("nan", "non-finite"), ("abc", "could not convert")]:
            lines[9] = lines[9].split(",")[0] + "," + bad
            with open(target, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            code = main(["invert", "--op", op, "--target", target,
                         "--out-dir", str(tmp_path / "out")])
            assert code == 64
            assert message in capsys.readouterr().err

    def test_non_finite_operator_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        obj = read_json(op)
        obj["w"] = float("nan")
        with open(op, "w") as fh:
            json.dump(obj, fh)  # writes the NaN literal that json.load accepts
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.ones(65)), target)
        code = main(["invert", "--op", op, "--target", target,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 64
        assert "non-finite value in w" in capsys.readouterr().err

    @pytest.mark.parametrize("field, kernel, top", [
        ("kernel", {"kind": "volterra", "base": 1.0, "nonlinearity": "tanh"}, {}),
        ("kernel", {"kind": "sigmoid_sum", "signature": ["x", "y", "u(y)"], "terms": []}, {}),
        ("kernel", {"kind": "sigmoid_sum", "signature": ["x", "y", "u(y)"]}, {}),
        ("kernel", {"kind": "wire", "terms": [{"c": 0.3, "a": 1.0, "b": 0.0}]}, {}),
        ("kernel", {"kind": "softmax_attention", "A": [[1.0, 0.5]], "B": [[1.0, 0.5]]}, {}),
        ("w", {"kind": "volterra"}, {"w": 0}),
        ("bias", {"kind": "volterra"}, {"bias": [0.5, 0.25]}),
        ("kernel parameter", {"kind": "volterra", "base": [[1.0, 2.0]]}, {}),
    ], ids=["unknown_nonlinearity", "empty_terms", "missing_terms", "wire_without_omega",
            "non_square_attention", "zero_w", "short_bias", "misshapen_base"])
    def test_malformed_operator_is_usage_error(self, tmp_path, capsys, field, kernel, top):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_json({"grid": {"a": 0.0, "b": 1.0, "size": 65}, "kernel": kernel, **top}, op)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.ones(65)), target)
        code = main(["invert", "--op", op, "--target", target,
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith("operator file:") and field in err

    def test_atlas_route(self, tmp_path):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        live = NonlinearIntegralOperator(grid, kern, w=1.0)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        for j, level in enumerate([0.0, 1.5]):
            v = GridFunction(grid, np.full(65, level))
            write_grid_function_csv(v, str(anchors / f"anchor_{j}.csv"))
        u_true = GridFunction(grid, np.full(65, 0.1))
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(live.apply(u_true), target)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op, "--target", target,
                     "--method", "atlas", "--anchors", str(anchors),
                     "--tol", "1e-10", "--out-dir", out])
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "Converged"
        assert report["anchor"] == 0
        assert report["cell"] is not None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("level", [1e200, 1e306, 1e308])
    def test_atlas_huge_target_is_out_of_basin(self, tmp_path, level):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        for j, anchor_level in enumerate([0.0, 1.5]):
            v = GridFunction(grid, np.full(65, anchor_level))
            write_grid_function_csv(v, str(anchors / f"anchor_{j}.csv"))
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, level * (1.0 + 0.5 * grid.nodes)), target)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", str(anchors), "--out-dir", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "OutOfBasin" and report["converged"] is False
        assert os.path.isfile(os.path.join(out, "trace.csv"))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_atlas_huge_target_detail_is_short(self, tmp_path):
        # The cell indices of 1e306 * (1 + x/2) are integers of 300+ digits;
        # the report writes each as the float it was floored from.
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        for j, anchor_level in enumerate([0.0, 1.5]):
            v = GridFunction(grid, np.full(65, anchor_level))
            write_grid_function_csv(v, str(anchors / f"anchor_{j}.csv"))
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, 1e306 * (1.0 + 0.5 * grid.nodes)), target)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", str(anchors), "--out-dir", out])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "OutOfBasin"
        assert len(report["detail"]) < 300
        assert "[cell (4e+306, " in report["detail"]


class TestTruncate:
    def test_linear_table(self, tmp_path):
        grid = Grid(0.0, 1.0, 129)
        rows = np.cos(2 * np.pi * np.outer(grid.nodes, np.ones(grid.size)))
        cols = np.cos(2 * np.pi * np.outer(np.ones(grid.size), grid.nodes))
        table = 1.0 + rows * cols
        op_path = str(tmp_path / "op.json")
        save_operator(
            NonlinearIntegralOperator(grid, LinearTableKernel(table)), op_path
        )
        out = str(tmp_path / "out")
        assert main(["truncate", "--op", op_path, "--rank", "4",
                     "--out-dir", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["rank"] == 4
        assert report["hs_tail"] <= 1e-6
        net = read_json(os.path.join(out, "network.json"))
        assert net["N"] == 4

    def test_wrong_kernel_kind_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 33)
        op_path = str(tmp_path / "op.json")
        write_contraction_op(op_path, grid)
        code = main(["truncate", "--op", op_path, "--out-dir", str(tmp_path)])
        assert code == 64
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore:Hilbert-Schmidt tail")
    def test_bare_kernel_object(self, tmp_path):
        table = str(tmp_path / "table.json")
        write_json({"kind": "linear_table", "table": 0.5}, table)
        out = str(tmp_path / "out")
        assert main(["truncate", "--op", table, "--rank", "3", "--grid-size", "64",
                     "--out-dir", out]) == 0
        net = read_json(os.path.join(out, "network.json"))
        assert net["N"] == 3 and net["layers"][0]["C"][0][0][0][0] == pytest.approx(0.5)

    @pytest.mark.parametrize("kernel", [
        {"kind": "linear_table", "table": [[1.0, 2.0]]},
        {"kind": "linear_table"},
    ], ids=["bad_table_shape", "no_table"])
    def test_malformed_table_is_usage_error(self, tmp_path, capsys, kernel):
        op_path = str(tmp_path / "op.json")
        write_json({"grid": {"a": 0.0, "b": 1.0, "size": 65}, "w": 1.0, "kernel": kernel},
                   op_path)
        code = main(["truncate", "--op", op_path, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith("operator file:")


class TestDemo:
    def test_volterra_demo(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["demo", "volterra", "--out-dir", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["demo"] == "volterra"
        assert report["max_error_vs_closed_form"] <= 1e-6

    def test_unknown_demo(self, tmp_path, capsys):
        assert main(["demo", "warp", "--out-dir", str(tmp_path)]) == 64
        capsys.readouterr()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        kern = SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)")
        live = NonlinearIntegralOperator(grid, kern, w=1.0)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(
            live.apply(GridFunction(grid, np.cos(2 * np.pi * grid.nodes))), target
        )
        inj_net = str(tmp_path / "inj_net.json")
        write_injective_net(inj_net)
        collapse_net = str(tmp_path / "collapse_net.json")
        write_collapsing_relu_net(collapse_net)
        commands = {
            "certify": (["certify", "--net", inj_net, "--mode", "bijective"], 0),
            "certify_neg": (["certify", "--net", collapse_net, "--seed", "3"], 2),
            "lift": (["lift", "--net", net], 0),
            "invert": (["invert", "--op", op, "--target", target], 0),
            "demo": (["demo", "volterra", "--grid-size", "128"], 0),
        }
        for name, (argv, expected) in commands.items():
            out1 = str(tmp_path / f"{name}_1")
            out2 = str(tmp_path / f"{name}_2")
            assert main(argv + ["--out-dir", out1]) == expected
            assert main(argv + ["--out-dir", out2]) == expected
            assert os.listdir(out1)
            for fname in os.listdir(out1):
                assert files_equal(
                    os.path.join(out1, fname), os.path.join(out2, fname)
                ), f"{name}/{fname} differs between runs"


def _scipy_modules_after(argvs, cwd):
    """In a fresh interpreter: the scipy modules loaded after ``import
    injop`` and after each ``injop.cli.main(argv)`` in turn, with the exit
    codes."""
    script = (
        "import json, sys\n"
        "import injop, injop.cli\n"
        "mods = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [[None, mods()]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    seen.append([injop.cli.main(argv), mods()])\n"
        "print(json.dumps(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(injop.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestImportCost:
    """Commands load scipy only where they use it.  Each check runs in a
    fresh interpreter, so modules the test session already holds cannot
    hide an import."""

    def test_import_and_scipy_free_commands(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        table_op = str(tmp_path / "table_op.json")
        grid = Grid(0.0, 1.0, 33)
        table = np.exp(-np.abs(grid.nodes[:, None] - grid.nodes[None, :]))
        save_operator(NonlinearIntegralOperator(grid, LinearTableKernel(table)), table_op)
        argvs = [
            ["certify", "--net", net, "--trials", "8", "--grid-size", "65"],
            ["lift", "--net", net, "--alpha", "0.1"],
            ["truncate", "--op", table_op, "--rank", "4"],
            ["demo", "volterra", "--grid-size", "65"],
        ]
        argvs = [argv + ["--out-dir", str(tmp_path / f"out{i}")] for i, argv in enumerate(argvs)]
        seen = _scipy_modules_after(argvs, str(tmp_path))
        assert seen[0] == [None, []], "import injop loaded scipy"
        for argv, (code, mods) in zip(argvs, seen[1:]):
            assert code in (0, 2), argv
            assert mods == [], f"{argv[0]} loaded {mods}"

    def test_sigmoid_banach_loads_special_only(self, tmp_path):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.cos(2 * np.pi * grid.nodes)), target)
        argv = ["invert", "--op", op, "--target", target, "--method", "banach",
                "--out-dir", str(tmp_path / "out")]
        (_, before), (code, mods) = _scipy_modules_after([argv], str(tmp_path))
        assert before == [] and code == 0
        assert "scipy.special" in mods
        assert not any(m.startswith("scipy.linalg") for m in mods), mods
