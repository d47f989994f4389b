"""Mutation tests: a file broken in one way is a usage error.

Each example saves a valid file, breaks its JSON tree, its CSV table or
its text in one way and drives ``cli.main`` in-process on it.  Every
command that reads the file must exit 64 with a message that starts with
where the fault is, never 0 and never 1.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from injop.cli import main
from injop.funcspace import GridFunction
from injop.serialize import (KERNEL_KINDS, TERM_KEYS, canonical_json, network_to_obj,
                             operator_to_obj, read_json, write_grid_function_csv)
from test_cli import write_saved_atlas
from test_roundtrip import networks, operators

MUTATION = settings(derandomize=True, max_examples=40, deadline=None, database=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Any text, and numbers written as JSON strings.
STRINGS = st.text(max_size=4) | st.integers().map(str) | st.floats().map(repr)
#: LeakyReLU slopes that are not injective, whose reciprocal overflows, or
#: that are not numbers at all.
BAD_SLOPES = (NON_FINITE | st.floats(max_value=0.0, allow_nan=False)
              | st.floats(min_value=0.0, max_value=1.0 / sys.float_info.max))


def _leaves(tree, path=()):
    """(path, value) of every number in a JSON tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        if isinstance(tree, (int, float)) and not isinstance(tree, bool):
            yield path, tree
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


def _get(tree, path):
    for step in path:
        tree = tree[step]
    return tree


def _set(tree, path, value):
    _get(tree, path[:-1])[path[-1]] = value


def _where(path):
    """The prefix of the message for a fault at ``path``."""
    if len(path) >= 3 and path[0] == "layers":
        return f"network file: layer {path[1]}"
    return "network file"


def _required_keys(tree):
    yield ("basis",)
    yield ("basis", "kind")
    yield ("basis", "interval")
    yield ("N",)
    yield ("layers",)
    for i, layer in enumerate(tree["layers"]):
        # n_out is only written where it differs from the input order, and
        # then the kernel blocks have its shape.
        for key in ("d_in", "d_out", "activation", "C", "bias", "n_out"):
            if key in layer:
                yield ("layers", i, key)
        yield ("layers", i, "activation", "kind")
        if "a" in layer["activation"]:
            yield ("layers", i, "activation", "a")


def _reshape(draw, nested):
    """Drop or repeat the last entry along one axis of a nested list."""
    depth, probe = 0, nested
    while isinstance(probe, list):
        depth, probe = depth + 1, probe[0]
    axis = draw(st.integers(0, depth - 1))
    grow = draw(st.booleans())

    def walk(node, level):
        if level < axis:
            return [walk(child, level + 1) for child in node]
        return node + node[-1:] if grow else node[:-1]
    return walk(nested, 0)


@st.composite
def broken_networks(draw, how):
    """(file text, message prefix) of a network file broken by ``how``."""
    net = draw(networks(draw(st.sampled_from(["square", "rectangular"]))))
    tree = json.loads(canonical_json(network_to_obj(net)))
    if how == "truncate":
        text = json.dumps(tree)
        return text[:draw(st.integers(0, len(text) - 1))], None
    if how == "drop_key":
        path = draw(st.sampled_from(list(_required_keys(tree))))
        del _get(tree, path[:-1])[path[-1]]
    elif how == "string":
        path = draw(st.sampled_from([p for p, _ in _leaves(tree)]))
        _set(tree, path, draw(STRINGS))
    elif how == "non_finite":
        path = draw(st.sampled_from([p for p, _ in _leaves(tree)
                                     if p[2:3] in (("C",), ("bias",), ("activation",))]))
        _set(tree, path, draw(NON_FINITE))
    elif how == "slope":
        path = ("layers", draw(st.integers(0, len(tree["layers"]) - 1)), "activation")
        _set(tree, path, {"kind": "leaky_relu", "a": draw(BAD_SLOPES)})
    elif how == "interval":
        path = ("basis", "interval")
        a, b = tree["basis"]["interval"]
        _set(tree, path, draw(st.sampled_from([[a], [b], [a, b, b + 1.0]])))
    else:  # reshape
        i = draw(st.integers(0, len(tree["layers"]) - 1))
        path = ("layers", i, draw(st.sampled_from(["C", "bias"])))
        _set(tree, path, _reshape(draw, _get(tree, path)))
    return json.dumps(tree), _where(path)


@pytest.mark.parametrize("how", ["drop_key", "string", "non_finite", "slope", "interval",
                                 "reshape", "truncate"])
@MUTATION
@given(data=st.data())
def test_broken_network_file_is_usage_error(how, data):
    text, where = data.draw(broken_networks(how))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w") as fh:
            fh.write(text)
        for command in ("certify", "lift"):
            out, err = os.path.join(tmp, command), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--net", path, "--trials", "1", "--out-dir", out]
                            if command == "certify" else
                            [command, "--net", path, "--out-dir", out])
            message = err.getvalue()
            assert code == 64, message
            assert message.startswith(where or f"{path}: not valid JSON"), message
            assert not os.path.exists(out)


def _atlas_counts(tree):
    """Paths of a saved atlas's counts: its probe count, its probe node
    indices, and each cell's indices and anchor."""
    yield ("ell0",)
    for i in range(len(tree["probe_indices"])):
        yield ("probe_indices", i)
    for i, entry in enumerate(tree["cell_map"]):
        for j in range(len(entry["cell"])):
            yield ("cell_map", i, "cell", j)
        yield ("cell_map", i, "anchor")


def _atlas_required_keys(tree):
    for key in ("ell0", "eps1", "probe_indices", "anchors", "cell_map"):
        yield (key,)
    for i in range(len(tree["cell_map"])):
        yield ("cell_map", i, "cell")
        yield ("cell_map", i, "anchor")


@st.composite
def broken_atlases(draw, tree, how):
    """Text of ``tree``, a saved atlas.json, broken by ``how``."""
    tree = json.loads(json.dumps(tree))
    if how == "truncate":
        text = json.dumps(tree)
        return text[:draw(st.integers(0, len(text) - 1))]
    if how == "drop_key":
        path = draw(st.sampled_from(list(_atlas_required_keys(tree))))
        del _get(tree, path[:-1])[path[-1]]
    elif how == "string":
        path = draw(st.sampled_from(list(_atlas_counts(tree)) + [("eps1",)]))
        _set(tree, path, draw(STRINGS))
    elif how == "fractional":
        path = draw(st.sampled_from(list(_atlas_counts(tree))))
        _set(tree, path, _get(tree, path) + draw(st.sampled_from([0.0, 0.5, 0.9])))
    elif how == "non_finite":
        tree["eps1"] = draw(NON_FINITE)
    elif how == "escape":  # an anchor named by a path, not a file name in the directory
        i = draw(st.integers(0, len(tree["anchors"]) - 1))
        name = tree["anchors"][i]
        tree["anchors"][i] = draw(st.sampled_from([f"../elsewhere/{name}", f"./{name}",
                                                   f"sub/../{name}", ".", "..", ""]))
    else:  # reshape: a cell nested one level deeper, or cut to its first index
        path = ("cell_map", draw(st.integers(0, len(tree["cell_map"]) - 1)), "cell")
        cell = _get(tree, path)
        _set(tree, path, draw(st.sampled_from([[cell], cell[0]])))
    return json.dumps(tree)


@pytest.fixture(scope="module")
def saved_atlas(tmp_path_factory):
    """(operator path, target path, atlas directory, atlas.json tree)."""
    op, target, atlas_dir = write_saved_atlas(tmp_path_factory.mktemp("atlas"))
    return op, target, atlas_dir, read_json(os.path.join(atlas_dir, "atlas.json"))


@pytest.mark.parametrize("how", ["drop_key", "string", "fractional", "non_finite", "reshape",
                                 "escape", "truncate"])
@MUTATION
@given(data=st.data())
def test_broken_atlas_file_is_usage_error(saved_atlas, how, data):
    op, target, atlas_dir, tree = saved_atlas
    text = data.draw(broken_atlases(tree, how))
    with tempfile.TemporaryDirectory() as tmp:
        anchors = shutil.copytree(atlas_dir, os.path.join(tmp, "atlas"))
        # A valid copy beside it, which an escaping anchor name would reach.
        shutil.copytree(atlas_dir, os.path.join(tmp, "elsewhere"))
        path = os.path.join(anchors, "atlas.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = os.path.join(tmp, "out"), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["invert", "--op", op, "--target", target, "--method", "atlas",
                         "--anchors", anchors, "--out-dir", out])
        message = err.getvalue()
        assert code == 64, message
        assert message.startswith(f"{path}: not valid JSON" if how == "truncate"
                                  else "atlas file"), message
        assert not os.path.exists(out)


def _operator_required_keys(tree):
    """The grid's keys, the kernel, its kind, the entries the kind table
    marks required, and each ridge term's keys."""
    kernel = tree["kernel"]
    yield ("kernel",)
    yield ("kernel", "kind")
    yield from (("grid", key) for key in tree["grid"])
    yield from (("kernel", e.key) for e in KERNEL_KINDS[kernel["kind"]][1] if e.required)
    for j in range(len(kernel.get("terms", []))):
        yield from (("kernel", "terms", j, key) for key in TERM_KEYS)


def _arrays(tree, path=()):
    """Paths of the outermost numeric arrays in a JSON tree."""
    if isinstance(tree, list) and tree and all(isinstance(v, (int, float, list)) for v in tree):
        yield path
    elif isinstance(tree, (dict, list)):
        for key, value in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _arrays(value, path + (key,))


@st.composite
def broken_operators(draw, kind, how):
    """(operator, file text) of an operator file of ``kind`` broken by
    ``how``.  The grid has at least 3 nodes, so no reshaped parameter table
    broadcasts to the (M, M) grid table again."""
    op = draw(operators(kind, draw(st.booleans()), min_nodes=3))
    tree = json.loads(canonical_json(operator_to_obj(op)))
    if how == "truncate":
        text = json.dumps(tree)
        return op, text[:draw(st.integers(0, len(text) - 1))]
    if how == "drop_key":
        path = draw(st.sampled_from(list(_operator_required_keys(tree))))
        del _get(tree, path[:-1])[path[-1]]
    elif how in ("string", "non_finite"):
        path = draw(st.sampled_from([p for p, _ in _leaves(tree)]))
        _set(tree, path, draw(STRINGS if how == "string" else NON_FINITE))
    else:  # reshape
        path = draw(st.sampled_from(list(_arrays(tree))))
        _set(tree, path, _reshape(draw, _get(tree, path)))
    return op, json.dumps(tree)


@pytest.mark.parametrize("kind", list(KERNEL_KINDS))
@pytest.mark.parametrize("how", ["drop_key", "string", "non_finite", "reshape", "truncate"])
@MUTATION
@given(data=st.data())
def test_broken_operator_file_is_usage_error(kind, how, data):
    op, text = data.draw(broken_operators(kind, how))
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "op.json"), os.path.join(tmp, "target.csv")
        with open(path, "w") as fh:
            fh.write(text)
        write_grid_function_csv(GridFunction(op.grid, np.zeros((op.channels, op.grid.size))),
                                target)
        commands = ["invert", "truncate"] if kind == "linear_table" else ["invert"]
        for command in commands:
            out, err = os.path.join(tmp, command), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--op", path, "--out-dir", out]
                            + (["--target", target] if command == "invert" else []))
            message = err.getvalue()
            assert code == 64, message
            assert message.startswith(f"{path}: not valid JSON" if how == "truncate"
                                      else "operator file"), message
            assert not os.path.exists(out)


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


#: Cell text that ``float`` does not read.
NOT_NUMBERS = st.text(max_size=4).filter(_not_a_number)


@st.composite
def broken_csvs(draw, text, how):
    """``text``, a grid-function CSV, broken by ``how``."""
    if how == "truncate":
        # Cut before the last cell is whole, so that no cut is a whole table.
        return text[:draw(st.integers(0, text.rindex(",") + 1))]
    table = [line.split(",") for line in text.splitlines()]
    if how == "nodes":  # the same function on a grid of another size
        xs = np.array([float(row[0]) for row in table[1:]])
        nodes = np.linspace(xs[0], xs[-1], draw(st.sampled_from([2, 33, 64, 66, 129])))
        columns = [np.interp(nodes, xs, [float(row[j]) for row in table[1:]])
                   for j in range(1, len(table[0]))]
        table = table[:1] + [[repr(float(v)) for v in row] for row in zip(nodes, *columns)]
    elif how == "drop_row":
        del table[draw(st.integers(0, len(table) - 1))]
    elif how == "drop_column":  # from every row, header included, or from one data row
        j = draw(st.integers(0, len(table[0]) - 1))
        every = draw(st.booleans())
        for row in table if every else [table[draw(st.integers(1, len(table) - 1))]]:
            del row[j]
    else:  # a data cell holds text that is no number, or one that is not finite
        row = table[draw(st.integers(1, len(table) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(
            NOT_NUMBERS if how == "string" else st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    return "\n".join(",".join(row) for row in table) + "\n"


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    """(operator path, target path, saved atlas directory, anchor CSV names)."""
    op, target, atlas_dir = write_saved_atlas(tmp_path_factory.mktemp("csv"))
    return op, target, atlas_dir, sorted(n for n in os.listdir(atlas_dir) if n.endswith(".csv"))


def _invert_exits_64_naming(path, argv):
    with tempfile.TemporaryDirectory() as tmp:
        out, err = os.path.join(tmp, "out"), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out-dir", out])
        message = err.getvalue()
        assert code == 64, message
        assert message.startswith(f"{path}: "), message
        assert not os.path.exists(out)


HOWS_CSV = ["drop_row", "drop_column", "string", "non_finite", "nodes", "truncate"]


@pytest.mark.parametrize("how", HOWS_CSV)
@MUTATION
@given(data=st.data())
def test_broken_target_csv_is_usage_error(csv_inputs, how, data):
    op, target, _, _ = csv_inputs
    with open(target) as fh:
        text = data.draw(broken_csvs(fh.read(), how))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "target.csv")
        with open(path, "w") as fh:
            fh.write(text)
        _invert_exits_64_naming(path, ["invert", "--op", op, "--target", path,
                                       "--method", "banach"])


@pytest.mark.parametrize("how", HOWS_CSV)
@MUTATION
@given(data=st.data())
def test_broken_anchor_csv_is_usage_error(csv_inputs, how, data):
    """One anchor broken, in a directory of anchor CSVs and in a saved atlas."""
    op, target, atlas_dir, names = csv_inputs
    name = data.draw(st.sampled_from(names))
    with open(os.path.join(atlas_dir, name)) as fh:
        text = data.draw(broken_csvs(fh.read(), how))
    with tempfile.TemporaryDirectory() as tmp:
        saved = shutil.copytree(atlas_dir, os.path.join(tmp, "saved"))
        plain = shutil.copytree(atlas_dir, os.path.join(tmp, "plain"))
        os.remove(os.path.join(plain, "atlas.json"))
        for anchors in (plain, saved):
            path = os.path.join(anchors, name)
            with open(path, "w") as fh:
                fh.write(text)
            _invert_exits_64_naming(path, ["invert", "--op", op, "--target", target,
                                           "--method", "atlas", "--anchors", anchors])
