"""Outside-in spans around the public functions of the hookup modules.

``Tracer`` replaces every public module-level function of the traced modules,
in every namespace that binds it, with a wrapper that records a span: name,
start, end and parent.  Callers inside the package look names up in their own
module (``quantifiers`` imports ``closest_classical``'s helpers by name), so a
function is wrapped wherever it is bound.  Spans stay in compact arrays in
memory until the run ends; ``layer_metrics`` turns them into per-layer
numbers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("search", "quantifiers", "mdms", "channels", "states", "linalg")

GRID = ("search.qubit_basis_vectors", "search.joint_dephased_entropies",
        "search.marginal_dephased_entropies", "search.angle_axes")
FIXED_BASIS = tuple(
    f"quantifiers.{n}"
    for n in ("total_correlations", "coherence", "local_coherence",
              "multipartite_coherence", "irreducible_classical", "hookup")
)
DRIVERS = ("mdms.scan_mdms", "mdms.find_thresholds", "mdms.compare_jk")

# Per-layer metric names and units, in report order.
METRICS = {
    "search.grid_s": "s",
    "search.grid_calls": "count",
    "search.grid_cells": "count",
    "search.minimize_s": "s",
    "search.refine_s": "s",
    "search.searches": "count",
    "search.nfev": "count",
    "search.converged_ratio": "ratio",
    "channels.basis_from_angles_calls": "count",
    "channels.dephased_probs_calls": "count",
    "channels.dephased_probs_s": "s",
    "channels.dephase_s": "s",
    "channels.marginal_product_s": "s",
    "states.entropy_calls": "count",
    "states.entropy_s": "s",
    "states.relative_entropy_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.partial_trace_s": "s",
    "quantifiers.fixed_basis_s": "s",
    "quantifiers.full_report_s": "s",
    "quantifiers.closest_classical_calls": "count",
    "quantifiers.closest_classical_s": "s",
    "mdms.searches": "count",
    "mdms.search_reuse_ratio": "ratio",
    "mdms.cells": "count",
    "mdms.cell_s": "s",
    "mdms.scan_s": "s",
    "mdms.thresholds_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder; ``with tracer.installed(modules): ...`` records calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.search_keys: dict[int, str] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside one span called ``name``."""
        return self._call(self.name_id(name), _OBSERVERS.get(name), fn, args, kwargs)

    def _call(self, nid, observe, fn, args, kwargs):
        idx = len(self.name_idx)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(self, idx, args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        nid, observe, call = self.name_id(name), _OBSERVERS.get(name), self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, observe, fn, args, kwargs)

        return traced

    def installed(self, modules, extra_namespaces=()):
        return _Installed(self, modules, extra_namespaces)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class _Installed:
    """Swap wrappers into every namespace binding a public function; undo on exit."""

    def __init__(self, tracer, modules, extra_namespaces):
        self.tracer = tracer
        self.namespaces = list(modules) + list(extra_namespaces)
        self.targets = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self.targets[fn] = f"{layer}.{attr}"
        self.saved = []

    def __enter__(self):
        wrappers = {fn: self.tracer.wrap(name, fn) for fn, name in self.targets.items()}
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        return self.tracer

    def __exit__(self, *exc):
        for ns, attr, value in self.saved:
            setattr(ns, attr, value)
        self.saved.clear()
        return False


# Counts recorded at the boundary where the work happens.
def _observe_grid_points(tracer, idx, args, kwargs, result):
    n_qubits = args[1] if len(args) > 1 else kwargs["n_qubits"]
    tracer.count("search.grid_cells", int(result) ** (2 * int(n_qubits)))


def _observe_minimize(tracer, idx, args, kwargs, result):
    tracer.count("search.searches")
    tracer.count("search.nfev", int(result.nfev))
    tracer.count("search.converged", int(bool(result.converged)))


def _observe_closest_classical(tracer, idx, args, kwargs, result):
    state = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    key = hashlib.sha1(np.ascontiguousarray(state.matrix).tobytes() + repr(cfg).encode())
    tracer.search_keys[idx] = key.hexdigest()


def _observe_scan(tracer, idx, args, kwargs, result):
    tracer.count("mdms.cells", len(result.thetas) * len(result.epsilons))


_OBSERVERS = {
    "search.effective_grid_points": _observe_grid_points,
    "search.minimize_over_product_bases": _observe_minimize,
    "quantifiers.closest_classical": _observe_closest_classical,
    "mdms.scan_mdms": _observe_scan,
}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


class SpanTable:
    """Array view of a tracer's spans with self times and ancestor groups."""

    def __init__(self, tracer: Tracer, groups: dict[str, tuple[str, ...]]):
        self.names = tracer.names
        self.name_idx = np.array(tracer.name_idx, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.duration = np.array(tracer.end, dtype=float) - np.array(tracer.start, dtype=float)
        n = len(self.name_idx)
        child = np.bincount(self.parent[self.parent >= 0], weights=self.duration[self.parent >= 0],
                            minlength=n) if n else np.zeros(0)
        self.self_time = self.duration - child

        # Bit g of ancestors[i] is set when some ancestor of span i is in group g.
        self.group_bit = {g: 1 << k for k, g in enumerate(groups)}
        name_mask = [0] * len(self.names)
        for g, members in groups.items():
            for member in members:
                if member in tracer._ids:
                    name_mask[tracer._ids[member]] |= self.group_bit[g]
        ancestors = [0] * n
        parent = self.parent.tolist()
        names = self.name_idx.tolist()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | name_mask[names[p]]
        self.ancestors = np.array(ancestors, dtype=np.int64)
        self.name_mask = np.array(name_mask, dtype=np.int64)

    def ids(self, names) -> np.ndarray:
        names = set(names)
        wanted = [k for k, name in enumerate(self.names) if name in names]
        return np.isin(self.name_idx, wanted)

    def calls(self, name: str) -> int:
        return int(self.ids([name]).sum())

    def inclusive(self, group: str) -> float:
        """Time in a group's spans, not counting a span nested in another of the group."""
        bit = self.group_bit[group]
        top = (self.name_mask[self.name_idx] & bit).astype(bool) & ~(self.ancestors & bit).astype(bool)
        return float(self.duration[top].sum())

    def under(self, name: str, group: str) -> np.ndarray:
        """Mask of ``name`` spans that have an ancestor in ``group``."""
        return self.ids([name]) & (self.ancestors & self.group_bit[group]).astype(bool)

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.ids([n for n in self.names if n.startswith(layer + ".")])].sum())

    def root_time(self) -> float:
        return float(self.duration[self.parent < 0].sum())


def _groups() -> dict[str, tuple[str, ...]]:
    singles = ("search.minimize_over_product_bases", "channels.dephased_probs",
               "channels.dephase", "channels.marginal_product", "states.von_neumann_entropy",
               "states.relative_entropy", "linalg.hermitian_eig", "linalg.partial_trace",
               "quantifiers.full_report", "quantifiers.closest_classical",
               "mdms.scan_mdms", "mdms.find_thresholds")
    return {"grid": GRID, "fixed_basis": FIXED_BASIS, "drivers": DRIVERS,
            **{name: (name,) for name in singles}}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (ratios over all traced passes)."""
    t = SpanTable(tracer, _groups())
    c = tracer.counters
    per = 1.0 / max(1, passes)
    grid = t.inclusive("grid")
    minimize = t.inclusive("search.minimize_over_product_bases")
    scan = t.inclusive("mdms.scan_mdms")
    searches = c.get("search.searches", 0)

    driver_searches = t.under("quantifiers.closest_classical", "drivers")
    keys = [tracer.search_keys[i] for i in np.flatnonzero(driver_searches)]
    scan_searches = t.under("quantifiers.closest_classical", "mdms.scan_mdms")

    out = {
        "search.grid_s": grid,
        "search.grid_calls": t.calls("search.joint_dephased_entropies"),
        "search.grid_cells": c.get("search.grid_cells", 0),
        "search.minimize_s": minimize,
        "search.refine_s": minimize - grid,
        "search.searches": searches,
        "search.nfev": c.get("search.nfev", 0),
        "channels.basis_from_angles_calls": t.calls("channels.basis_from_angles"),
        "channels.dephased_probs_calls": t.calls("channels.dephased_probs"),
        "channels.dephased_probs_s": t.inclusive("channels.dephased_probs"),
        "channels.dephase_s": t.inclusive("channels.dephase"),
        "channels.marginal_product_s": t.inclusive("channels.marginal_product"),
        "states.entropy_calls": t.calls("states.von_neumann_entropy"),
        "states.entropy_s": t.inclusive("states.von_neumann_entropy"),
        "states.relative_entropy_s": t.inclusive("states.relative_entropy"),
        "linalg.eigh_calls": t.calls("linalg.hermitian_eig"),
        "linalg.eigh_s": t.inclusive("linalg.hermitian_eig"),
        "linalg.partial_trace_s": t.inclusive("linalg.partial_trace"),
        "quantifiers.fixed_basis_s": t.inclusive("fixed_basis"),
        "quantifiers.full_report_s": t.inclusive("quantifiers.full_report"),
        "quantifiers.closest_classical_calls": t.calls("quantifiers.closest_classical"),
        "quantifiers.closest_classical_s": t.inclusive("quantifiers.closest_classical"),
        "mdms.searches": len(keys),
        "mdms.cells": c.get("mdms.cells", 0),
        "mdms.cell_s": scan - float(t.duration[scan_searches].sum()),
        "mdms.scan_s": scan,
        "mdms.thresholds_s": t.inclusive("mdms.find_thresholds"),
        **{f"{layer}.self_s": t.layer_self(layer) for layer in LAYERS},
        "trace.spans": len(t.name_idx),
    }
    out = {k: v * per for k, v in out.items()}
    # Ratios carry no per-pass scaling; 0 means the workload made no such search.
    out["search.converged_ratio"] = c.get("search.converged", 0) / searches if searches else 0.0
    out["mdms.search_reuse_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    return out


def span_summary(tracer: Tracer) -> list[dict]:
    """Calls, total and self seconds per span name, busiest first."""
    t = SpanTable(tracer, {})
    rows = []
    for k, name in enumerate(t.names):
        mask = t.name_idx == k
        rows.append({"name": name, "calls": int(mask.sum()),
                     "total_s": float(t.duration[mask].sum()),
                     "self_s": float(t.self_time[mask].sum())})
    return sorted(rows, key=lambda r: -r["self_s"])
