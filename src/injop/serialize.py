"""Text serialization: canonical JSON and CSV writers plus their readers.

Every float is printed as ``%.17g``, 17 significant digits, so writing the
same object twice yields byte-identical files and numeric round trips are
bit-exact.  Float arrays are formatted one array at a time, to the same
text.  Dictionaries keep insertion order; nothing here depends on the
platform.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import DimensionError, UsageError
from .funcspace import BasisSpec, Grid, GridFunction, SpectralCoeffs

# A reader or writer imports the modules of the objects it builds, so
# loading this module loads no layer.
if TYPE_CHECKING:
    from .atlas import Atlas
    from .certify import CertReport
    from .finite_rank import Activation, FiniteRankNetwork
    from .nonlin import InversionTrace, KernelBase, NonlinearIntegralOperator


_FLOAT = "%.17g"


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _FLOAT % x


def _format_floats(arr: np.ndarray, template: str) -> str:
    """``template % arr``: :func:`format_float` of each element, in C order,
    fills one ``%.17g`` field; the first non-finite element raises there."""
    arr = np.asarray(arr, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        format_float(arr.flat[int(np.argmin(finite))])
    return template % tuple(arr.ravel().tolist())


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text with floats via :func:`format_float`."""
    pieces: List[str] = []
    _write_json(obj, pieces)
    return "".join(pieces)


def _write_json(obj: Any, out: List[str]):
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_json(val, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size and obj.ndim:
            template = _FLOAT
            for n in reversed(obj.shape):  # innermost axis first
                template = "[" + ",".join([template] * n) + "]"
            out.append(_format_floats(obj, template))
        else:  # 0-d, empty, integer, bool and complex arrays
            _write_json(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _write_json(val, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj: Any, path: str):
    """Canonical JSON; the file is opened only once the text is built."""
    text = canonical_json(obj) + "\n"
    with open(path, "w") as f:
        f.write(text)


def read_json(path: str) -> Any:
    """Parse a JSON file.  Content that is not JSON text is a usage error
    naming the path; an error reading the file stays a fault."""
    with open(path) as f:
        try:
            # format_float writes -0.0 as "-0", which json would read as the int 0.
            return json.load(f, parse_int=lambda s: -0.0 if s == "-0" else int(s))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise UsageError(f"{path}: not valid JSON: {err}") from None


def finite_array(value: Any, what: str) -> np.ndarray:
    """Float array of file data; anything but numbers, NaN or infinity is a ValueError."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold numbers only")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value in {what}")
    return arr


def finite_number(value: Any, what: str) -> float:
    """One number of file data as a float: what :func:`finite_array` reads,
    holding no array, not even of one element; else a ValueError."""
    arr = finite_array(value, what)
    if arr.ndim:
        raise ValueError(f"{what} must be a number, not an array")
    return float(arr)


def json_object(obj: Any, what: Optional[str] = None,
                keys: Optional[Tuple[str, ...]] = None) -> Dict[str, Any]:
    """obj, if it is a JSON object with no entries other than ``keys`` (when
    given); else a usage error, named by ``what`` or else by the enclosing
    :func:`file_field`."""
    where = f"{what}: " if what else ""
    if not isinstance(obj, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        raise UsageError(f"{where}must hold a JSON object, not {kind.get(type(obj), 'a number')}")
    if keys is not None and not set(obj) <= set(keys):
        raise UsageError(f"{where}unknown entry {min(set(obj) - set(keys))!r}; the entries "
                         f"are {', '.join(keys)}")
    return obj


def _integer(value: Any, what: str) -> int:
    """A count in file data; anything but a JSON integer is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# finite-rank networks

def basis_to_obj(basis: BasisSpec) -> Dict[str, Any]:
    return {"kind": basis.kind, "interval": [basis.interval[0], basis.interval[1]]}


def basis_from_obj(obj: Dict[str, Any]) -> BasisSpec:
    return BasisSpec(json_object(obj, "basis", ("kind", "interval"))["kind"],
                     finite_array(obj["interval"], "the basis interval"))


def _activation_to_obj(act: Activation) -> Dict[str, Any]:
    out: Dict[str, Any] = {"kind": act.kind}
    if act.a is not None:
        out["a"] = float(act.a)
    return out


def _activation_from_obj(obj: Dict[str, Any]) -> Activation:
    from .finite_rank import Activation

    a = json_object(obj, "activation", ("kind", "a")).get("a")
    return Activation(obj["kind"], None if a is None else finite_number(a, "the slope a"))


def network_to_obj(net: FiniteRankNetwork) -> Dict[str, Any]:
    """``N`` is the input order; a layer names its output order ``n_out``
    only where it differs from its input order."""
    layers = []
    for layer in net.layers:
        lobj: Dict[str, Any] = {"d_in": layer.d_in, "d_out": layer.d_out}
        if layer.n_out != layer.n:
            lobj["n_out"] = layer.n_out
        lobj.update(activation=_activation_to_obj(layer.activation), C=layer.c,
                    bias=layer.bias.coeffs)
        layers.append(lobj)
    return {"basis": basis_to_obj(net.basis), "N": net.n, "layers": layers}


#: The entries of a network file, and of each of its layers, in file order.
NETWORK_KEYS = ("basis", "N", "layers")
LAYER_KEYS = ("d_in", "d_out", "n_out", "activation", "C", "bias")


def network_from_obj(obj: Dict[str, Any]) -> FiniteRankNetwork:
    from .finite_rank import FiniteRankLayer, FiniteRankNetwork

    json_object(obj, "network file", NETWORK_KEYS)
    with file_field("network file"):
        basis = basis_from_obj(obj["basis"])
        n = _integer(obj["N"], "N")
        layer_objs = list(obj["layers"])
    layers = []
    for i, lobj in enumerate(layer_objs):
        with file_field(f"network file: layer {i}"):
            n_out = _integer(json_object(lobj, keys=LAYER_KEYS).get("n_out", n), "n_out")
            c = finite_array(lobj["C"], "kernel blocks C")
            bias = SpectralCoeffs(basis, n_out, finite_array(lobj["bias"], "a layer bias"))
            layers.append(FiniteRankLayer(_integer(lobj["d_in"], "d_in"),
                                          _integer(lobj["d_out"], "d_out"), n, c, bias,
                                          _activation_from_obj(lobj["activation"]), n_out))
        n = n_out
    with file_field("network file"):
        return FiniteRankNetwork(layers)


def save_network(net: FiniteRankNetwork, path: str):
    write_json(network_to_obj(net), path)


def load_network(path: str) -> FiniteRankNetwork:
    return network_from_obj(read_json(path))


# ---------------------------------------------------------------------------
# certification reports

def cert_report_to_obj(report: CertReport) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "verdict": report.verdict,
        "sigma_min": float(report.sigma_min),
        "sigma_max": float(report.sigma_max),
        "trials": int(report.trials),
    }
    if report.seed is not None:
        obj["seed"] = int(report.seed)
    if report.witness is not None:
        v1, v2 = report.witness
        obj["witness"] = {"v1": v1.coeffs, "v2": v2.coeffs}
    obj["bijective_on_span"] = bool(report.bijective_on_span)
    return obj


# ---------------------------------------------------------------------------
# grid functions as CSV

def write_grid_function_csv(f: GridFunction, path: str):
    """Header x,ch0,ch1,...; one row per node; 17 significant digits."""
    if f.values.ndim != 2:
        raise DimensionError(f"a CSV holds one function of shape (h, M), not {f.values.shape}")
    header = "x," + ",".join(f"ch{c}" for c in range(f.channels))
    row = ",".join([_FLOAT] * (f.channels + 1))
    text = _format_floats(np.vstack([f.grid.nodes, f.values]).T, "\n".join([row] * f.grid.size))
    with open(path, "w") as fh:
        fh.write(f"{header}\n{text}\n")


def read_grid_function_csv(path: str, grid: Optional[Grid] = None,
                           channels: Optional[int] = None) -> GridFunction:
    """Rebuild a grid function; the grid is inferred from the x column
    unless one is supplied (then the nodes must agree), and a supplied
    channel count must match the file's.  Bad content is a usage error
    naming the path; an error reading the file stays a fault."""
    try:  # UnicodeDecodeError is a ValueError; OSError is not
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or not lines[0].startswith("x"):
            raise ValueError("expected a grid-function CSV with an x,ch0,... header")
        rows = [[float(tok) for tok in ln.split(",")] for ln in lines[1:]]
        if len({len(row) for row in rows} | {lines[0].count(",") + 1}) > 1:
            raise ValueError("header and rows have differing numbers of columns")
        data = finite_array(rows, "the table")
    except ValueError as err:
        raise UsageError(f"{path}: {err}") from None
    if data.ndim != 2 or data.shape[1] < 2:
        raise UsageError(f"{path}: need at least one channel column")
    if channels is not None and data.shape[1] - 1 != channels:
        raise UsageError(f"{path}: {data.shape[1] - 1} channel column(s), expected {channels}")
    xs = data[:, 0]
    if grid is None:
        grid = Grid(float(xs[0]), float(xs[-1]), len(xs))
    if len(xs) != grid.size or not np.allclose(xs, grid.nodes, atol=1e-9):
        raise UsageError(
            f"{path}: node column of {len(xs)} nodes on [{xs[0]}, {xs[-1]}] does not match "
            f"the expected grid of {grid.size} nodes on [{grid.a}, {grid.b}]"
        )
    return GridFunction(grid, data[:, 1:].T.copy())


# ---------------------------------------------------------------------------
# inversion traces as CSV

TRACE_HEADER = "iteration,residual_L2,residual_H1,ratio"


def write_trace_csv(trace: InversionTrace, path: str):
    lines = [TRACE_HEADER]
    for it, rl2, rh1, ratio in trace.rows():
        cells = [str(it), format_float(rl2), format_float(rh1)]
        cells.append("" if ratio is None else format_float(ratio))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


# ---------------------------------------------------------------------------
# nonlinear operators

#: The keys of one ridge term in a kernel's ``terms`` entry, in file order.
TERM_KEYS = ("c", "a", "b")


class KernelEntry:
    """A kernel file entry: its key, the constructor argument it fills,
    the value the writer stores, the reader's ``read(value, key)``, and
    whether it must be there (if not, the constructor's default holds)."""

    def __init__(self, key: str, arg: str, value: Callable[[Any], Any],
                 read: Callable[[Any, str], Any] = finite_array, required: bool = True):
        self.key, self.arg, self.value, self.read, self.required = key, arg, value, read, required


def kernel_signature(kernel: KernelBase) -> List[str]:
    """The arguments a kernel reads: x and y, then u(x) and/or u(y)."""
    return ["x", "y", *kernel.reads]


_TABLE = lambda k: k.terms[0][0]  # noqa: E731  (the c of a Volterra or linear-table kernel)
_TERMS = KernelEntry(
    "terms", "terms", lambda k: [dict(zip(TERM_KEYS, t)) for t in k.terms],
    lambda terms, key: [tuple(finite_array(json_object(t, f"term {j}", TERM_KEYS)[p],
                                           f"term {j} {p}") for p in TERM_KEYS)
                        for j, t in enumerate(terms)])
#: sigmoid_sum and wire kernels take the u entry of the signature as an argument.
_U = KernelEntry("signature", "signature", kernel_signature,
                 lambda sig, key: "u(y)" if "u(y)" in sig else "u(x)", required=False)

#: Each kernel kind's class in :mod:`injop.nonlin`, by name, and its file
#: entries after ``kind``, in file order.
KERNEL_KINDS: Dict[str, Tuple[str, Tuple[KernelEntry, ...]]] = {
    "sigmoid_sum": ("SigmoidSumKernel", (_U, _TERMS)),
    "wire": ("WireKernel", (_U, KernelEntry("omega", "omega", attrgetter("omega"),
                                            finite_number), _TERMS)),
    "volterra": ("VolterraKernel", (
        KernelEntry("base", "base", _TABLE, required=False),
        KernelEntry("nonlinearity", "nonlinearity", attrgetter("nonlinearity"),
                    lambda v, key: v, required=False))),
    "softmax_attention": ("SoftmaxAttentionKernel", (
        KernelEntry("A", "a_mat", attrgetter("a_mat")),
        KernelEntry("B", "b_mat", attrgetter("b_mat")))),
    "linear_table": ("LinearTableKernel", (KernelEntry("table", "table", _TABLE),)),
}


def kernel_to_obj(kernel: KernelBase) -> Dict[str, Any]:
    if kernel.kind not in KERNEL_KINDS:
        raise TypeError(f"cannot serialize kernel of kind {kernel.kind!r}")
    if any(callable(p) for term in getattr(kernel, "terms", ()) for p in term):
        raise TypeError("callable kernel parameters cannot be serialized; tabulate first")
    obj = {"kind": kernel.kind, "signature": kernel_signature(kernel)}
    obj.update((e.key, e.value(kernel)) for e in KERNEL_KINDS[kernel.kind][1])
    return obj


def kernel_from_obj(obj: Dict[str, Any]) -> KernelBase:
    """Rebuild a kernel.  An entry its kind does not name, or a signature
    other than the rebuilt kernel's, is a ValueError.  A dense table is read
    as an array, so it saves again; the operator checks it against the grid."""
    from . import nonlin

    kind, sig = json_object(obj)["kind"], obj.get("signature")
    if type(kind) is not str or kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    name, entries = KERNEL_KINDS[kind]
    unknown = set(obj) - {"kind", "signature", *(e.key for e in entries)}
    if unknown:
        raise ValueError(f"a {kind} kernel has no entry {min(unknown)!r}")
    kernel = getattr(nonlin, name)(**{e.arg: e.read(obj[e.key], e.key) for e in entries
                                      if e.required or e.key in obj})
    if sig is not None and sig != kernel_signature(kernel):
        raise ValueError(f"signature {sig!r} differs from {kernel_signature(kernel)!r}, "
                         f"what this {kind} kernel reads")
    return kernel


def grid_to_obj(grid: Grid) -> Dict[str, Any]:
    return {"a": grid.a, "b": grid.b, "size": grid.size}


def grid_from_obj(obj: Dict[str, Any]) -> Grid:
    json_object(obj, keys=("a", "b", "size"))
    return Grid(finite_number(obj["a"], "a"), finite_number(obj["b"], "b"),
                _integer(obj["size"], "size"))


def operator_to_obj(op: NonlinearIntegralOperator) -> Dict[str, Any]:
    obj = {"grid": grid_to_obj(op.grid), "w": op.w_values, "kernel": kernel_to_obj(op.kernel)}
    if op.bias is not None:
        obj["bias"] = op.bias.values
    return obj


#: The entries of an operator file, in file order.
OPERATOR_KEYS = ("grid", "w", "kernel", "bias")


def operator_from_obj(obj: Dict[str, Any], grid: Optional[Grid] = None) -> NonlinearIntegralOperator:
    from .nonlin import NonlinearIntegralOperator

    json_object(obj, "operator file", OPERATOR_KEYS)
    with file_field("operator file: grid"):
        file_grid = grid_from_obj(obj["grid"]) if "grid" in obj else None
    grid = file_grid if grid is None else grid
    if grid is None:
        raise UsageError("operator file names no grid and none was supplied")
    if file_grid is not None and not grid.matches(file_grid):
        raise DimensionError("requested grid disagrees with the grid stored in the operator file")
    with file_field("operator file: kernel"):
        kernel = kernel_from_obj(obj["kernel"])
    with file_field("operator file: w"):
        w = finite_array(obj.get("w", 1.0), "w")  # a 0-d array is a constant multiplier
    bias = None
    if obj.get("bias") is not None:
        with file_field("operator file: bias"):
            bias = GridFunction(grid, finite_array(obj["bias"], "bias"))
    with file_field("operator file: operator"):
        return NonlinearIntegralOperator(grid, kernel, w=w, bias=bias)


@contextmanager
def file_field(where: str):
    """Report a construction error from file data, a usage error included,
    as a usage error naming where in the file it came from, e.g.
    ``operator file: kernel``."""
    try:
        yield
    except KeyError as err:
        raise UsageError(f"{where} lacks the entry {err}") from None
    except (AttributeError, TypeError, ValueError) as err:  # so are UsageError, DimensionError
        raise UsageError(f"{where}: {err}") from None


def save_operator(op: NonlinearIntegralOperator, path: str):
    write_json(operator_to_obj(op), path)


def load_operator(path: str, grid: Optional[Grid] = None) -> NonlinearIntegralOperator:
    return operator_from_obj(read_json(path), grid)


# ---------------------------------------------------------------------------
# atlases (anchor inputs as CSV files; factorizations rebuilt on load)

def save_atlas(atlas: Atlas, dirpath: str):
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for anchor in atlas.anchors:
        name = f"anchor_{anchor.index:03d}.csv"
        write_grid_function_csv(anchor.v, os.path.join(dirpath, name))
        names.append(name)
    obj = {
        "ell0": atlas.ell0,
        "eps1": atlas.eps1,
        "probe_indices": [int(i) for i in atlas.probe_idx],
        "anchors": names,
        "cell_map": [
            {"cell": list(key), "anchor": idx} for key, idx in sorted(atlas.cell_map.items())
        ],
        "constants": atlas.constants,
    }
    write_json(obj, os.path.join(dirpath, "atlas.json"))


#: The entries of a saved atlas.json, as :func:`save_atlas` writes them.
ATLAS_KEYS = ("ell0", "eps1", "probe_indices", "anchors", "cell_map", "constants")


def load_atlas(dirpath: str, op: NonlinearIntegralOperator) -> Atlas:
    from .atlas import build_atlas

    obj = json_object(read_json(os.path.join(dirpath, "atlas.json")), "atlas file", ATLAS_KEYS)
    with file_field("atlas file"):
        names = obj["anchors"]
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise TypeError("anchors must be a non-empty list of CSV file names")
        for name in names:
            if os.path.basename(name) != name or name in ("", ".", ".."):
                raise ValueError(f"anchor {name!r} is not a file name in the atlas directory")
        ell0, eps1 = _integer(obj["ell0"], "ell0"), finite_number(obj["eps1"], "eps1")
        if not 1 <= ell0 <= op.grid.size:
            raise ValueError(f"ell0 must lie in [1, {op.grid.size}], got {ell0}")
        if not eps1 > 0:
            raise ValueError(f"eps1 must be finite and positive, got {eps1}")
        stored_cells = {
            tuple(_integer(i, "a cell index") for i in e["cell"]):
                _integer(e["anchor"], "a cell's anchor")
            for e in (json_object(e, keys=("cell", "anchor")) for e in obj["cell_map"])
        }
        stored_probes = [_integer(i, "a probe index") for i in obj["probe_indices"]]
    inputs = [read_grid_function_csv(os.path.join(dirpath, n), op.grid, op.channels) for n in names]
    atlas = build_atlas(op, inputs, ell0=ell0, eps1=eps1)
    if stored_cells != atlas.cell_map or stored_probes != atlas.probe_idx.tolist():
        raise UsageError(
            f"stale atlas in {dirpath}: its cell map or probe nodes differ from the "
            f"ones rebuilt for this operator"
        )
    return atlas
