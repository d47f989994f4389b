"""End-to-end command tests: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import injop
from injop.cli import main
from injop.errors import UsageError
from injop.finite_rank import (
    Activation,
    FiniteRankLayer,
    FiniteRankNetwork,
    apply_network,
    truncate_kernel,
    zero_bias,
)
from injop.funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs
from injop.nonlin import (
    LinearTableKernel,
    NonlinearIntegralOperator,
    SigmoidSumKernel,
)
from injop.atlas import build_atlas, global_invert
from injop.nonlin import invert_banach
from injop.reduction import lift_to_injective
from injop.serialize import (
    load_network,
    load_operator,
    read_json,
    save_atlas,
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


def write_relu_net(path, seed=6, n=2):
    rng = np.random.default_rng(seed)
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


def write_split_relu_net(path):
    """ReLU of u and of -u on two channels, then the identity on both:
    u = relu(u) - relu(-u), so the net is injective, yet no ReLU
    certificate applies."""
    n = 2
    split = np.zeros((n, n, 2, 1))
    split[np.arange(n), np.arange(n)] = [[1.0], [-1.0]]
    identity = np.zeros((n, n, 2, 2))
    identity[np.arange(n), np.arange(n)] = np.eye(2)
    save_network(FiniteRankNetwork([
        FiniteRankLayer(d_in=1, d_out=2, n=n, c=split, bias=zero_bias(BASIS, 2, n),
                        activation=Activation("relu")),
        FiniteRankLayer(d_in=2, d_out=2, n=n, c=identity, bias=zero_bias(BASIS, 2, n)),
    ]), path)


def write_hidden_net(path, *activations, seed=7):
    """One hidden layer per activation, then the linear final layer."""
    rng = np.random.default_rng(seed)
    n = 2
    layers = [FiniteRankLayer(d_in=1, d_out=1, n=n, c=rng.standard_normal((n, n, 1, 1)),
                              bias=zero_bias(BASIS, 1, n), activation=act)
              for act in (*activations, Activation())]
    save_network(FiniteRankNetwork(layers), path)


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

    @pytest.mark.parametrize("command, flag, value", [
        ("certify", "--grid-size", "1"),
        ("certify", "--grid-size", "0"),
        ("demo", "--grid-size", "1"),
        ("invert", "--grid-size", "1"),
        ("truncate", "--grid-size", "0"),
        ("lift", "--alpha", "0.7"),
        ("truncate", "--rank", "0"),
        ("certify", "--trials", "-1"),
        ("certify", "--seed", "-1"),
        ("invert", "--tol", "inf"),
        ("invert", "--tol", "nan"),
        ("demo", "--tol", "0"),
        ("invert", "--tol", "-1"),
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        net = str(tmp_path / "net.json")
        write_injective_net(net)
        op = str(tmp_path / "op.json")  # no grid: truncate uses --grid-size
        write_json({"kind": "linear_table", "table": 0.5}, op)
        target = str(tmp_path / "t.csv")
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 33), np.zeros(33)), target)
        inputs = {"certify": ["--net", net], "lift": ["--net", net], "demo": ["volterra"],
                  "invert": ["--op", op, "--target", target], "truncate": ["--op", op]}
        out = str(tmp_path / "out")
        code = main([command, *inputs[command], flag, value, "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(f"{flag} must ") and not os.path.exists(out)

    @pytest.mark.parametrize("command, flag", [
        ("lift", "--seed"), ("lift", "--grid-size"), ("invert", "--seed"),
        ("truncate", "--seed"), ("demo", "--seed"),
    ])
    def test_flags_no_command_reads_are_refused(self, tmp_path, capsys, command, flag):
        net = str(tmp_path / "net.json")
        write_injective_net(net)
        op = str(tmp_path / "op.json")
        write_json({"kind": "linear_table", "table": 0.5}, op)
        inputs = {"lift": ["--net", net], "demo": ["volterra"],
                  "invert": ["--op", op, "--target", "t.csv"], "truncate": ["--op", op]}
        out = str(tmp_path / "out")
        assert main([command, *inputs[command], flag, "3", "--out-dir", out]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_settable_values_per_command(self):
        from injop.cli import _build_parser

        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        dests = {name: sorted(a.dest for a in p._actions if a.dest != "help")
                 for name, p in sub.choices.items()}
        assert dests == {
            "certify": ["grid_size", "net", "out_dir", "seed", "trials"],
            "lift": ["alpha", "net", "out_dir"],
            "invert": ["anchors", "grid_size", "method", "op", "out_dir", "target", "tol"],
            "truncate": ["grid_size", "op", "out_dir", "rank"],
            "demo": ["demo_name", "grid_size", "out_dir", "tol"],
        }
        assert sum(map(len, dests.values())) == 23


class TestCertify:
    def test_injective_network_exits_zero(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_injective_net(net)
        out = str(tmp_path / "out")
        assert main(["certify", "--net", net, "--out-dir", out]) == 0
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

    def test_injective_relu_without_certificate_exits_zero(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_split_relu_net(net)
        out = str(tmp_path / "out")
        assert main(["certify", "--net", net, "--trials", "20", "--out-dir", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["verdict"] == "NoCounterexampleFound"
        assert [layer["verdict"] for layer in report["layers"]] == [
            "NoCounterexampleFound", "CertifiedInjective"]

    def test_missing_file_is_fault(self, tmp_path, capsys):
        code = main(["certify", "--net", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("size", [2, 3, 8, 31])
    def test_grid_that_does_not_resolve_the_network_is_usage_error(self, tmp_path, capsys,
                                                                   size):
        # A ReLU layer of order 4 needs at least 8 * 4 = 32 nodes.
        net = str(tmp_path / "net.json")
        write_relu_net(net, n=4)
        out = str(tmp_path / "out")
        code = main(["certify", "--net", net, "--grid-size", str(size), "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(f"--grid-size {size} ") and "< 8 * 4" in err
        assert not os.path.exists(out)

    def test_grid_that_resolves_the_network_certifies(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net, n=4)
        out = str(tmp_path / "out")
        assert main(["certify", "--net", net, "--grid-size", "32", "--trials", "20",
                     "--out-dir", out]) in (0, 2)
        assert read_json(os.path.join(out, "report.json"))["command"] == "certify"


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
        assert lifted["N"] == report["order_in"]
        assert lifted["layers"][-1]["n_out"] == report["order_out"]

    def test_lifted_network_file_round_trips(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        out = str(tmp_path / "out")
        assert main(["lift", "--net", net, "--alpha", "0.1", "--out-dir", out]) == 0
        path = os.path.join(out, "network.json")
        loaded = load_network(path)
        res = lift_to_injective(load_network(net), mode="relu", alpha=0.1)
        grid = Grid(0.0, 1.0, 512)
        a = SpectralCoeffs(BASIS, res.n, np.random.default_rng(9).standard_normal((5, 1, res.n)))
        assert np.array_equal(apply_network(loaded, a, grid).coeffs, res.apply(a, grid).coeffs)
        again = str(tmp_path / "again.json")
        save_network(loaded, again)
        assert files_equal(path, again)

    @pytest.mark.parametrize("activations, mode", [
        ([], "relu"),
        ([Activation("relu"), Activation("relu")], "relu"),
        ([Activation("leaky_relu", 0.2)], "injective"),
        ([Activation(), Activation("leaky_relu", 0.5)], "injective"),
    ], ids=["no_hidden_layer", "relu", "leaky_relu", "identity_and_leaky_relu"])
    def test_hidden_activations_decide_the_mode(self, tmp_path, activations, mode):
        net = str(tmp_path / "net.json")
        write_hidden_net(net, *activations)
        out = str(tmp_path / "out")
        assert main(["lift", "--net", net, "--out-dir", out]) == 0
        assert read_json(os.path.join(out, "report.json"))["mode"] == mode

    @pytest.mark.parametrize("activations", [
        [Activation("sigmoid")],
        [Activation(), Activation("relu")],
        [Activation("relu"), Activation("leaky_relu", 0.2)],
    ], ids=["sigmoid", "identity_and_relu", "relu_and_leaky_relu"])
    def test_mode_the_network_cannot_use_is_usage_error(self, tmp_path, capsys, activations):
        net = str(tmp_path / "net.json")
        write_hidden_net(net, *activations)
        out = str(tmp_path / "out")
        code = main(["lift", "--net", net, "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 64, err
        assert "needs hidden activations in" in err and "--mode" not in err
        assert not os.path.exists(out)

    def test_lifted_network_does_not_lift_again(self, tmp_path, capsys):
        # Its last layer maps order 2 to order 4.
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        lifted = str(tmp_path / "lifted")
        assert main(["lift", "--net", net, "--out-dir", lifted]) == 0
        out = str(tmp_path / "out")
        code = main(["lift", "--net", os.path.join(lifted, "network.json"), "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith("layer 1: ") and "order 2 -> 4" in err
        assert not os.path.exists(out)

    def test_certify_reads_lifted_network(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        lifted = str(tmp_path / "lifted")
        assert main(["lift", "--net", net, "--out-dir", lifted]) == 0
        out = str(tmp_path / "out")
        code = main(["certify", "--net", os.path.join(lifted, "network.json"),
                     "--trials", "20", "--out-dir", out])
        assert code in (0, 2)
        report = read_json(os.path.join(out, "report.json"))
        assert len(report["layers"]) == 2


def _layer_obj(d_in, d_out, n, kind="identity", c_shape=None):
    return {"d_in": d_in, "d_out": d_out, "activation": {"kind": kind},
            "C": np.zeros(c_shape or (n, n, d_out, d_in)).tolist(),
            "bias": np.zeros((d_out, n)).tolist()}


def _without_c(layer):
    del layer["C"]
    return layer


@pytest.mark.parametrize("command", ["certify", "lift"])
@pytest.mark.parametrize("layers, message", [
    ([_layer_obj(1, 1, 2, c_shape=(1, 1))], "layer 0: kernel blocks C have shape (1, 1)"),
    ([_layer_obj(1, 1, 2, "relu"), _without_c(_layer_obj(1, 1, 2))],
     "layer 1 lacks the entry 'C'"),
    ([_layer_obj(1, 1, 2), _layer_obj(1, 1, 2, "relu")],
     "layer 1: final layer must carry the identity activation"),
    ([[1.0, 2.0]], "layer 0: "),
], ids=["misshapen_c", "missing_c", "relu_last_layer", "layer_not_an_object"])
def test_malformed_network_is_usage_error(tmp_path, capsys, command, layers, message):
    net = str(tmp_path / "net.json")
    write_json({"basis": {"kind": "fourier", "interval": [0.0, 1.0]}, "N": 2,
                "layers": layers}, net)
    code = main([command, "--net", net, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith("network file: ") and message in err


def _edited_network(tmp_path, edit, *activations):
    """A saved network file after ``edit(obj)`` on its JSON tree; json.dump
    writes NaN and infinity as the literals json.load accepts."""
    net = str(tmp_path / "net.json")
    write_hidden_net(net, *activations)
    obj = read_json(net)
    edit(obj)
    with open(net, "w") as fh:
        json.dump(obj, fh)
    return net


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value
    return edit


@pytest.mark.parametrize("command", ["certify", "lift"])
@pytest.mark.parametrize("slope, message", [
    (0.0, "leaky_relu slope a must be finite and positive, got 0.0"),
    (-0.5, "leaky_relu slope a must be finite and positive, got -0.5"),
    (float("nan"), "non-finite value in the slope a"),
    (float("inf"), "non-finite value in the slope a"),
    (-float("inf"), "non-finite value in the slope a"),
    (5e-324, "leaky_relu slope a must have a finite reciprocal, got 5e-324"),
], ids=["zero", "negative", "nan", "inf", "minus_inf", "subnormal"])
def test_leaky_relu_slope_from_file_is_usage_error(tmp_path, capsys, command, slope, message):
    net = _edited_network(tmp_path, _set("layers", 1, "activation", "a", slope),
                          Activation("relu"), Activation("leaky_relu", 0.2))
    code = main([command, "--net", net, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(f"network file: layer 1: {message}")


@pytest.mark.parametrize("command", ["certify", "lift"])
@pytest.mark.parametrize("interval", [[0.0], [0.0, 1.0, 5.0], []], ids=["one", "three", "none"])
def test_basis_interval_needs_two_endpoints(tmp_path, capsys, command, interval):
    net = _edited_network(tmp_path, _set("basis", "interval", interval), Activation("relu"))
    code = main([command, "--net", net, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(f"network file: interval needs two endpoints, got {len(interval)}")


@pytest.mark.parametrize("command", ["certify", "lift"])
@pytest.mark.parametrize("edit, message", [
    (_set("N", "2"), "network file: N must be an integer, got '2'"),
    (_set("N", 2.0), "network file: N must be an integer, got 2.0"),
    (_set("layers", 0, "d_out", "1"), "network file: layer 0: d_out must be an integer"),
    (_set("layers", 0, "activation", "a", "0.2"), "network file: layer 0: the slope a must hold numbers"),
    (_set("basis", "interval", ["0", 1.0]), "network file: the basis interval must hold numbers"),
    (_set("layers", 1, "bias", [["0", 0.0]]), "network file: layer 1: a layer bias must hold"),
    (_set("layers", 0, "C", float("nan")), "network file: layer 0: non-finite value in kernel"),
], ids=["string_order", "float_order", "string_width", "string_slope", "string_endpoint",
        "string_bias", "nan_kernel"])
def test_network_numbers_are_json_numbers(tmp_path, capsys, command, edit, message):
    net = _edited_network(tmp_path, edit, Activation("leaky_relu", 0.2))
    code = main([command, "--net", net, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(message), err


@pytest.mark.parametrize("command", ["certify", "lift"])
@pytest.mark.parametrize("edit, where", [
    (_set("basis", [0.0, 1.0]), "network file: basis"),
    (_set("layers", 0, [1.0]), "network file: layer 0"),
    (_set("layers", 1, "activation", ["leaky_relu", 0.2]), "network file: layer 1: activation"),
], ids=["basis", "layer", "activation"])
def test_network_entry_not_an_object_is_usage_error(tmp_path, capsys, command, edit, where):
    net = _edited_network(tmp_path, edit, Activation("leaky_relu", 0.2))
    assert main([command, "--net", net, "--out-dir", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err.strip() == f"{where}: must hold a JSON object, not an array"


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
        ("grid lacks the entry 'b'", {"kind": "volterra"}, {"grid": {"a": 0.0, "size": 65}}),
        ("grid: grid needs at least 2 nodes", {"kind": "volterra"},
         {"grid": {"a": 0.0, "b": 1.0, "size": 1}}),
        ("grid: empty interval", {"kind": "volterra"}, {"grid": {"a": 1.0, "b": 0.0, "size": 65}}),
        ("grid: size must be an integer", {"kind": "volterra"},
         {"grid": {"a": 0.0, "b": 1.0, "size": "x"}}),
        ("grid: size must be an integer", {"kind": "volterra"},
         {"grid": {"a": 0.0, "b": 1.0, "size": "65"}}),
        ("grid: size must be an integer", {"kind": "volterra"},
         {"grid": {"a": 0.0, "b": 1.0, "size": 65.5}}),
        ("kernel: unknown kernel kind 'foo'", {"kind": "foo"}, {}),
        ("kernel: unknown kernel kind ['volterra']", {"kind": ["volterra"]}, {}),
        ("kernel: a volterra kernel has no entry 'nonlinerity'",
         {"kind": "volterra", "base": 0.5, "nonlinerity": "sigmoid"}, {}),
        ("kernel: signature ['x', 'y', 'garbage'] differs",
         {"kind": "sigmoid_sum", "signature": ["x", "y", "garbage"],
          "terms": [{"c": 0.3, "a": 1.0, "b": 0.0}]}, {}),
        ("kernel: signature ['x', 'y', 'u(x)', 'u(y)'] differs",
         {"kind": "sigmoid_sum", "signature": ["x", "y", "u(x)", "u(y)"],
          "terms": [{"c": 0.3, "a": 1.0, "b": 0.0}]}, {}),
        ("kernel: signature ['x', 'y', 'u(y)'] differs",
         {"kind": "volterra", "signature": ["x", "y", "u(y)"]}, {}),
        ("kernel: unknown nonlinearity ['sigmoid']",
         {"kind": "volterra", "nonlinearity": ["sigmoid"]}, {}),
        ("operator: bias has shape (2, 65)", {"kind": "volterra"},
         {"bias": [[0.5] * 65, [0.25] * 65]}),
    ], ids=["unknown_nonlinearity", "empty_terms", "missing_terms", "wire_without_omega",
            "non_square_attention", "zero_w", "short_bias", "misshapen_base", "grid_without_b",
            "one_node_grid", "reversed_grid", "non_integer_grid_size", "numeric_string_grid_size",
            "fractional_grid_size", "unknown_kind", "kind_in_a_list", "misspelt_entry",
            "garbage_signature", "two_u_signature", "linear_volterra_reading_u",
            "nonlinearity_in_a_list", "bias_with_extra_channel"])
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

    @pytest.mark.parametrize("obj, kind", [([1.0, 2.0], "an array"), ("op", "a string"),
                                           (5, "a number")])
    def test_operator_file_not_an_object_is_usage_error(self, tmp_path, capsys, obj, kind):
        op = str(tmp_path / "op.json")
        write_json(obj, op)
        for argv in (["invert", "--op", op, "--target", "t.csv"], ["truncate", "--op", op]):
            assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 64
            assert capsys.readouterr().err.strip() == (
                f"operator file: must hold a JSON object, not {kind}")
        with pytest.raises(UsageError, match="must hold a JSON object"):
            load_operator(op)

    @pytest.mark.parametrize("where, obj, commands", [
        ("operator file: kernel", {"kernel": [{"kind": "linear_table", "table": 0.1}]},
         ("invert", "truncate")),
        ("operator file: grid", {"grid": [0.0, 1.0, 65],
                                 "kernel": {"kind": "linear_table", "table": 0.1}},
         ("invert", "truncate")),
        ("operator file: kernel: term 0", {"kernel": {"kind": "sigmoid_sum",
                                                      "terms": [[0.3, 1.0, 0.0]]}}, ("invert",)),
    ], ids=["kernel", "grid", "term"])
    def test_operator_entry_not_an_object_is_usage_error(self, tmp_path, capsys, where, obj,
                                                         commands):
        op = str(tmp_path / "op.json")
        write_json(obj, op)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 65), np.ones(65)), target)
        for command in commands:
            argv = ["invert", "--op", op, "--target", target] if command == "invert" else [
                "truncate", "--op", op]
            assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 64
            assert capsys.readouterr().err.strip() == (
                f"{where}: must hold a JSON object, not an array")

    def test_operator_file_of_one_number_is_usage_error(self, tmp_path, capsys):
        op = str(tmp_path / "op.json")
        write_json(5, op)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 65), np.ones(65)), target)
        code = main(["invert", "--op", op, "--target", target,
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith("operator file:")

    def test_target_on_another_grid_is_usage_error(self, tmp_path, capsys):
        op = str(tmp_path / "op.json")
        write_contraction_op(op, Grid(0.0, 1.0, 65))
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 33), np.ones(33)), target)
        code = main(["invert", "--op", op, "--target", target,
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(target) and "33 nodes" in err and "65 nodes" in err

    def test_anchor_on_another_grid_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        write_grid_function_csv(GridFunction(grid, np.zeros(65)), str(anchors / "anchor_0.csv"))
        coarse = str(anchors / "anchor_1.csv")
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 33), np.ones(33)), coarse)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.full(65, 0.1)), target)
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", str(anchors), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(coarse) and "33 nodes" in err and "65 nodes" in err

    @pytest.mark.parametrize("which, tail", [
        ("target", b",\xff"), ("anchor", b",\xff"), ("target", b""),
    ], ids=["target_not_utf8", "anchor_not_utf8", "target_short_row"])
    def test_malformed_grid_function_csv_is_usage_error(self, tmp_path, capsys, which, tail):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        anchor = str(anchors / "anchor_0.csv")
        write_grid_function_csv(GridFunction(grid, np.zeros(65)), anchor)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.full(65, 0.1)), target)
        path = target if which == "target" else anchor
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        lines[9] = lines[9].split(b",")[0] + tail  # row 9 keeps only its node, then the tail
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", str(anchors), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(path)

    @pytest.mark.parametrize("which", ["target", "anchor"])
    def test_grid_function_with_wrong_channel_count_is_usage_error(self, tmp_path, capsys,
                                                                    which):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        anchor = str(anchors / "anchor_0.csv")
        target = str(tmp_path / "target.csv")
        for path in (anchor, target):
            write_grid_function_csv(GridFunction(grid, np.full(65, 0.1)), path)
        path = target if which == "target" else anchor
        write_grid_function_csv(GridFunction(grid, np.full((2, 65), 0.1)), path)
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", str(anchors), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(path) and "2 channel column(s), expected 1" in err

    def test_header_wider_than_rows_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.full(65, 0.1)), target)
        lines = open(target).read().splitlines()
        assert lines[0] == "x,ch0"
        with open(target, "w") as fh:
            fh.write("\n".join(["x,ch0,ch1"] + lines[1:]) + "\n")
        code = main(["invert", "--op", op, "--target", target,
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(target) and "header" in err

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


def write_saved_atlas(tmp_path):
    """An operator file, a target near anchor 0 and an atlas saved for the
    operator, on 65 nodes: (operator path, target path, atlas directory)."""
    grid = Grid(0.0, 1.0, 65)
    op = str(tmp_path / "op.json")
    write_contraction_op(op, grid)
    live = load_operator(op)
    anchors = [GridFunction(grid, np.full(65, level)) for level in (0.0, 1.5)]
    atlas_dir = str(tmp_path / "atlas")
    save_atlas(build_atlas(live, anchors), atlas_dir)
    target = str(tmp_path / "target.csv")
    write_grid_function_csv(live.apply(GridFunction(grid, np.full(65, 0.1))), target)
    return op, target, atlas_dir


def _run_on_edited_file(tmp_path, which, edit):
    """Exit code of the command that reads an ``operator``, ``network`` or
    saved ``atlas`` file after ``edit(obj)`` on its JSON tree."""
    if which == "network":
        argv = ["certify", "--net", _edited_network(tmp_path, edit, Activation("leaky_relu", 0.2))]
    else:
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        path = op if which == "operator" else os.path.join(atlas_dir, "atlas.json")
        obj = read_json(path)
        edit(obj)
        write_json(obj, path)
        argv = ["invert", "--op", op, "--target", target]
        if which == "atlas":
            argv += ["--method", "atlas", "--anchors", atlas_dir]
    return main(argv + ["--out-dir", str(tmp_path / "out")])


_WIRE = {"kind": "wire", "omega": [3.0], "terms": [{"c": 0.2, "a": 1.0, "b": 0.0}]}


@pytest.mark.parametrize("which, edit, message", [
    ("operator", _set("kernel", _WIRE), "operator file: kernel: omega must be a number"),
    ("operator", _set("grid", "a", [0.0]), "operator file: grid: a must be a number"),
    ("operator", _set("grid", "b", [1.0]), "operator file: grid: b must be a number"),
    ("network", _set("layers", 0, "activation", "a", [0.2]),
     "network file: layer 0: the slope a must be a number"),
    ("atlas", _set("eps1", [0.25]), "atlas file: eps1 must be a number"),
], ids=["wire_omega", "grid_a", "grid_b", "activation_slope", "atlas_eps1"])
def test_scalar_entry_holding_an_array_is_usage_error(tmp_path, capsys, which, edit, message):
    code = _run_on_edited_file(tmp_path, which, edit)
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(message), err


@pytest.mark.parametrize("which, edit, message", [
    ("operator", _set("bais", [0.0] * 65), "operator file: unknown entry 'bais'"),
    ("operator", _set("kernel", "terms", 0, "bb", 4),
     "operator file: kernel: term 0: unknown entry 'bb'"),
    ("operator", _set("grid", "step", 0.1), "operator file: grid: unknown entry 'step'"),
    ("network", _set("depth", 2), "network file: unknown entry 'depth'"),
    ("network", _set("basis", "n", 2), "network file: basis: unknown entry 'n'"),
    ("network", _set("layers", 0, "bais", [[0.0, 0.0]]),
     "network file: layer 0: unknown entry 'bais'"),
    ("network", _set("layers", 0, "activation", "slope", 0.2),
     "network file: layer 0: activation: unknown entry 'slope'"),
    ("atlas", _set("ell1", 4), "atlas file: unknown entry 'ell1'"),
    ("atlas", _set("cell_map", 0, "weight", 1.0), "atlas file: unknown entry 'weight'"),
], ids=["operator_bais", "term_bb", "grid_step", "network_depth", "basis_n", "layer_bais",
        "activation_slope", "atlas_ell1", "cell_map_weight"])
def test_unknown_entry_is_usage_error(tmp_path, capsys, which, edit, message):
    code = _run_on_edited_file(tmp_path, which, edit)
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(message), err


def truncate_file(path):
    """Cut a text file in half."""
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


class TestTraceDigits:
    """Every cell of trace.csv equals, bit for bit, the trace of the same
    inversion run in-process on the same operator and target."""

    GRID = Grid(0.0, 1.0, 65)
    OP = NonlinearIntegralOperator(GRID, SigmoidSumKernel([(0.3, 1.0, 0.0)], signature="u(y)"))

    def run(self, tmp_path, u_true, *extra):
        op, target = str(tmp_path / "op.json"), str(tmp_path / "target.csv")
        save_operator(self.OP, op)
        z = self.OP.apply(GridFunction(self.GRID, u_true))
        write_grid_function_csv(z, target)
        out = str(tmp_path / "out")
        assert main(["invert", "--op", op, "--target", target, "--tol", "1e-10",
                     "--out-dir", out, *extra]) == 0
        assert "seed" not in read_json(os.path.join(out, "report.json"))
        with open(os.path.join(out, "trace.csv")) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "iteration,residual_L2,residual_H1,ratio"
        return z, [row.split(",") for row in rows]

    def assert_cells_match(self, rows, trace):
        want = trace.rows()
        assert len(rows) == len(want) >= 3
        for row, (it, res_l2, res_h1, ratio) in zip(rows, want):
            assert len(row) == 4 and int(row[0]) == it
            assert float(row[1]).hex() == res_l2.hex()
            assert float(row[2]).hex() == res_h1.hex()
            if ratio is None:
                assert row[3] == ""
            else:
                assert float(row[3]).hex() == ratio.hex()
        assert rows[0][3] == "" and any(row[3] for row in rows)

    def test_banach(self, tmp_path):
        z, rows = self.run(tmp_path, np.sin(2 * np.pi * self.GRID.nodes))
        _, trace = invert_banach(self.OP, z, tol=1e-10, max_iter=200)
        self.assert_cells_match(rows, trace)

    def test_atlas(self, tmp_path):
        anchors = [GridFunction(self.GRID, np.full(65, level)) for level in (0.0, 1.5)]
        (tmp_path / "anchors").mkdir()
        for j, v in enumerate(anchors):
            write_grid_function_csv(v, str(tmp_path / "anchors" / f"anchor_{j}.csv"))
        z, rows = self.run(tmp_path, 0.1 + 0.05 * np.sin(2 * np.pi * self.GRID.nodes),
                           "--method", "atlas", "--anchors", str(tmp_path / "anchors"))
        atlas = build_atlas(self.OP, anchors)
        _, trace = global_invert(atlas, self.OP, z, tol=1e-10, max_iter=200)
        self.assert_cells_match(rows, trace)


class TestSavedAtlas:
    def test_saved_atlas_route(self, tmp_path):
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        out = str(tmp_path / "out")
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", atlas_dir, "--tol", "1e-10", "--out-dir", out])
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["outcome"] == "Converged" and report["anchor"] == 0

    @pytest.mark.parametrize("key, value, message", [
        ("anchors", None, "atlas file lacks the entry 'anchors'"),
        ("anchors", 3, "atlas file: anchors must be a non-empty list"),
        ("anchors", [], "atlas file: anchors must be a non-empty list"),
        ("eps1", "x", "atlas file: eps1 must hold numbers only"),
        ("eps1", -1, "atlas file: eps1 must be finite and positive, got -1.0"),
        ("cell_map", None, "atlas file lacks the entry 'cell_map'"),
        ("ell0", "a", "atlas file: ell0 must be an integer, got 'a'"),
        ("ell0", 0, "atlas file: ell0 must lie in [1, 65], got 0"),
        # Each reads as the saved value under int() or float().
        ("ell0", "4", "atlas file: ell0 must be an integer, got '4'"),
        ("ell0", 4.9, "atlas file: ell0 must be an integer, got 4.9"),
        ("eps1", "0.25", "atlas file: eps1 must hold numbers only"),
        (("cell_map", 1, "anchor"), "1", "atlas file: a cell's anchor must be an integer"),
    ], ids=["no_anchors", "anchors_not_a_list", "no_anchor_names", "eps1_not_a_number",
            "eps1_negative", "no_cell_map", "ell0_not_an_integer", "ell0_zero",
            "ell0_a_string", "ell0_fractional", "eps1_a_string", "anchor_a_string"])
    def test_malformed_atlas_file_is_usage_error(self, tmp_path, capsys, key, value, message):
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        path = os.path.join(atlas_dir, "atlas.json")
        obj = read_json(path)
        *parents, key = key if isinstance(key, tuple) else (key,)
        entry = obj
        for step in parents:
            entry = entry[step]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        write_json(obj, path)
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", atlas_dir, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(message)

    def test_truncated_atlas_file_is_usage_error(self, tmp_path, capsys):
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        path = os.path.join(atlas_dir, "atlas.json")
        truncate_file(path)
        code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                     "--anchors", atlas_dir, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(f"{path}: not valid JSON")


@pytest.mark.parametrize("obj, kind", [([{"N": 2}], "an array"), ("net", "a string"),
                                       (7, "a number"), (None, "null"), (True, "a boolean")])
def test_network_file_not_an_object_is_usage_error(tmp_path, capsys, obj, kind):
    net = str(tmp_path / "net.json")
    write_json(obj, net)
    for command in ("certify", "lift"):
        assert main([command, "--net", net, "--out-dir", str(tmp_path / "out")]) == 64
        assert capsys.readouterr().err.strip() == (
            f"network file: must hold a JSON object, not {kind}")
    with pytest.raises(UsageError, match="must hold a JSON object"):
        load_network(net)


@pytest.mark.parametrize("command", ["certify", "lift", "invert", "certify_binary"])
def test_unparsable_json_is_usage_error(tmp_path, capsys, command):
    if command == "invert":
        grid = Grid(0.0, 1.0, 65)
        path = str(tmp_path / "atlas_op.json")
        write_contraction_op(path, grid)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.ones(65)), target)
        argv = ["invert", "--op", path, "--target", target]
    else:
        path = str(tmp_path / "relu_net.json")
        write_relu_net(path)
        argv = [command.split("_")[0], "--net", path]
    truncate_file(path)
    if command == "certify_binary":  # half a file, then bytes that are not UTF-8
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")
    code = main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 64, err
    assert err.startswith(f"{path}: not valid JSON")


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

    @pytest.mark.parametrize("size, rank", [(33, 33), (64, 200)])
    def test_rank_beyond_the_grid_is_usage_error(self, tmp_path, capsys, size, rank):
        grid = Grid(0.0, 1.0, size)
        table = np.exp(-np.abs(grid.nodes[:, None] - grid.nodes[None, :]))
        op_path = str(tmp_path / "op.json")
        save_operator(NonlinearIntegralOperator(grid, LinearTableKernel(table)), op_path)
        out = str(tmp_path / "out")
        code = main(["truncate", "--op", op_path, "--rank", str(rank), "--out-dir", out])
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith(f"--rank {rank} ") and f"{size}-node grid" in err
        assert not os.path.exists(out)

    def test_wrong_kernel_kind_is_usage_error(self, tmp_path, capsys):
        grid = Grid(0.0, 1.0, 33)
        op_path = str(tmp_path / "op.json")
        write_contraction_op(op_path, grid)
        code = main(["truncate", "--op", op_path, "--out-dir", str(tmp_path)])
        assert code == 64
        capsys.readouterr()

    def test_bare_kernel_object(self, tmp_path, capsys):
        table = str(tmp_path / "table.json")
        write_json({"kind": "linear_table", "table": 0.5}, table)
        out = str(tmp_path / "out")
        # The scalar lies in the span, so rounding pushes its tail^2 below 0;
        # the clamp is recorded in tail_clamped alone, with no warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = truncate_kernel(lambda x, y: np.broadcast_to(0.5, (64, 64)),
                                     Grid(0.0, 1.0, 64), BASIS, 3)
            assert main(["truncate", "--op", table, "--rank", "3", "--grid-size", "64",
                         "--out-dir", out]) == 0
        assert caught == [] and capsys.readouterr().err == ""
        assert result.tail_clamped and result.hs_tail == 0.0
        assert read_json(os.path.join(out, "report.json"))["tail_clamped"] is True
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


    @pytest.mark.parametrize("obj", [
        [{"kind": "linear_table", "table": 0.5}],
        {"grid": {"a": 0.0, "b": 1.0, "size": 65}, "kernel": [{"kind": "linear_table"}]},
    ], ids=["top_level_list", "kernel_list"])
    def test_list_shaped_file_is_usage_error(self, tmp_path, capsys, obj):
        op_path = str(tmp_path / "op.json")
        write_json(obj, op_path)
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
            "certify": (["certify", "--net", inj_net], 0),
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


def _injop_modules_after(argv, cwd):
    """In a fresh interpreter: the exit code and the ``injop`` modules loaded
    after ``import injop`` (argv None), ``import injop.cli`` (argv []) or
    ``injop.cli.main(argv)``."""
    script = (
        "import json, sys\n"
        "argv = json.loads(sys.argv[1])\n"
        "import injop\n"
        "if argv is not None:\n"
        "    import injop.cli\n"
        "code = injop.cli.main(argv) if argv else None\n"
        "print(json.dumps([code, sorted(m[6:] for m in sys.modules if m.startswith('injop.'))]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(injop.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestImportCost:
    """No command loads scipy, even where scipy is installed, and each loads
    only the injop modules it runs.  Each check runs in a fresh interpreter, so
    modules the test session already holds cannot hide an import."""

    def test_each_command_loads_only_its_modules(self, tmp_path):
        net = str(tmp_path / "net.json")
        write_relu_net(net)
        table_op = str(tmp_path / "table_op.json")
        grid = Grid(0.0, 1.0, 33)
        table = np.exp(-np.abs(grid.nodes[:, None] - grid.nodes[None, :]))
        save_operator(NonlinearIntegralOperator(grid, LinearTableKernel(table)), table_op)
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        for j, level in enumerate([0.0, 1.5]):
            write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 65), np.full(65, level)),
                                    str(anchors / f"anchor_{j}.csv"))
        invert = ["invert", "--op", op, "--target", target, "--method"]
        base = ["cli", "errors", "funcspace", "serialize"]
        cases = [
            ("import injop", None, []),
            ("import injop.cli", [], base),
            ("certify", ["certify", "--net", net, "--trials", "8", "--grid-size", "65"],
             base + ["certify", "finite_rank"]),
            ("lift", ["lift", "--net", net, "--alpha", "0.1"], base + ["finite_rank", "reduction"]),
            ("invert banach", invert + ["banach"], base + ["nonlin"]),
            ("invert atlas from CSVs", invert + ["atlas", "--anchors", str(anchors)],
             base + ["atlas", "nonlin"]),
            ("invert atlas saved", invert + ["atlas", "--anchors", atlas_dir],
             base + ["atlas", "nonlin"]),
            ("truncate", ["truncate", "--op", table_op, "--rank", "4"],
             base + ["finite_rank", "nonlin"]),
            ("demo volterra", ["demo", "volterra", "--grid-size", "65"], base + ["nonlin"]),
        ]
        for i, (label, argv, want) in enumerate(cases):
            if argv:
                argv = argv + ["--out-dir", str(tmp_path / f"out{i}")]
            code, mods = _injop_modules_after(argv, str(tmp_path))
            assert mods == sorted(want), f"{label} loaded {mods}"
            if argv:
                assert code in ((0, 2) if label == "certify" else (0,)), label

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

    def test_atlas_commands_load_no_scipy(self, tmp_path):
        op, target, atlas_dir = write_saved_atlas(tmp_path)
        grid = Grid(0.0, 1.0, 65)
        anchors = tmp_path / "anchors"
        anchors.mkdir()
        for j, level in enumerate([0.0, 1.5]):
            v = GridFunction(grid, np.full(65, level))
            write_grid_function_csv(v, str(anchors / f"anchor_{j}.csv"))
        argvs = [["invert", "--op", op, "--target", target, "--method", "atlas",
                  "--anchors", source, "--out-dir", str(tmp_path / f"out{i}")]
                 for i, source in enumerate([str(anchors), atlas_dir])]
        seen = _scipy_modules_after(argvs, str(tmp_path))
        assert seen[0] == [None, []]
        for argv, (code, mods) in zip(argvs, seen[1:]):
            assert code == 0, argv
            assert mods == [], f"atlas from {argv[8]} loaded {mods}"

    def test_sigmoid_banach_loads_no_scipy(self, tmp_path):
        grid = Grid(0.0, 1.0, 65)
        op = str(tmp_path / "op.json")
        write_contraction_op(op, grid)
        target = str(tmp_path / "target.csv")
        write_grid_function_csv(GridFunction(grid, np.cos(2 * np.pi * grid.nodes)), target)
        argv = ["invert", "--op", op, "--target", target, "--method", "banach",
                "--out-dir", str(tmp_path / "out")]
        (_, before), (code, mods) = _scipy_modules_after([argv], str(tmp_path))
        assert before == [] and code == 0
        assert mods == [], mods


#: Run in a fresh interpreter in which any scipy import fails: save an atlas
#: built from the anchor CSVs, run every CLI command, then a randomized lift.
_SCIPY_BLOCKED = """
import glob, json, os, sys
sys.modules["scipy"] = None
import injop.cli
from injop.atlas import build_atlas
from injop.reduction import lift_to_injective
from injop.serialize import load_network, load_operator, read_grid_function_csv, save_atlas

cfg = json.loads(sys.argv[1])
anchors = sorted(glob.glob(os.path.join(cfg["anchors"], "*.csv")))
save_atlas(build_atlas(load_operator(cfg["op"]), [read_grid_function_csv(p) for p in anchors]),
           cfg["atlas"])
codes = [injop.cli.main(argv) for argv in cfg["argvs"]]
lift = lift_to_injective(load_network(cfg["net"]), mode="relu", randomized=True, seed=0)
print(json.dumps({"codes": codes, "b": lift.reduction.dense.tolist(), "meta": lift.reduction.meta}))
"""


def test_library_and_commands_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable, every
    command, save_atlas and a randomized lift give the answers they give
    here, file for file."""
    net = str(tmp_path / "net.json")
    write_relu_net(net)
    table_op = str(tmp_path / "table_op.json")
    grid = Grid(0.0, 1.0, 33)
    table = np.exp(-np.abs(grid.nodes[:, None] - grid.nodes[None, :]))
    save_operator(NonlinearIntegralOperator(grid, LinearTableKernel(table)), table_op)
    op, target, _ = write_saved_atlas(tmp_path)
    anchors = tmp_path / "anchors"
    anchors.mkdir()
    for j, level in enumerate([0.0, 1.5]):
        write_grid_function_csv(GridFunction(Grid(0.0, 1.0, 65), np.full(65, level)),
                                str(anchors / f"anchor_{j}.csv"))
    blocked_atlas = str(tmp_path / "blocked_atlas")
    invert = ["invert", "--op", op, "--target", target]
    argvs = [
        ["certify", "--net", net, "--trials", "8", "--grid-size", "65"],
        ["lift", "--net", net, "--alpha", "0.1"],
        invert + ["--method", "banach"],
        invert + ["--method", "atlas", "--anchors", str(anchors)],
        invert + ["--method", "atlas", "--anchors", blocked_atlas],
        ["truncate", "--op", table_op, "--rank", "4"],
        ["demo", "volterra", "--grid-size", "65"],
    ]
    cfg = {"op": op, "anchors": str(anchors), "atlas": blocked_atlas, "net": net,
           "argvs": [argv + ["--out-dir", str(tmp_path / f"blocked{i}")]
                     for i, argv in enumerate(argvs)]}
    src = os.path.dirname(os.path.dirname(os.path.abspath(injop.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(cfg)],
                          cwd=str(tmp_path), env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)

    codes = [main(argv + ["--out-dir", str(tmp_path / f"here{i}")])
             for i, argv in enumerate(argvs)]
    assert seen["codes"] == codes
    assert codes[1:] == [0] * 6 and codes[0] in (0, 2)
    for i in range(len(argvs)):
        names = sorted(os.listdir(tmp_path / f"here{i}"))
        assert names == sorted(os.listdir(tmp_path / f"blocked{i}")), argvs[i]
        for name in names:
            assert files_equal(str(tmp_path / f"here{i}" / name),
                               str(tmp_path / f"blocked{i}" / name)), (argvs[i], name)
    here_atlas = str(tmp_path / "here_atlas")
    save_atlas(build_atlas(load_operator(op), [GridFunction(Grid(0.0, 1.0, 65), np.full(65, v))
                                                for v in (0.0, 1.5)]), here_atlas)
    for name in os.listdir(here_atlas):
        assert files_equal(os.path.join(here_atlas, name), os.path.join(blocked_atlas, name))
    lift = lift_to_injective(load_network(net), mode="relu", randomized=True, seed=0)
    assert seen["meta"] == lift.reduction.meta
    assert np.array_equal(seen["b"], lift.reduction.dense)
