"""In-memory span recorder that wraps the library's functions from outside.

A span is one call of a wrapped function: name, start, end, parent span and
the id of the benchmark operation it belongs to. Wrappers are installed by
rebinding names in the module namespaces that look them up at call time
(``mafoliation.gradient.fields_at``, ``mafoliation.foliation.gradient_vector``,
...), and every rebinding is undone on exit, also when an operation raises.
Spans stay in flat arrays until ``write`` is called once at the end.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("potential", "levi", "gradient", "foliation", "homogeneity", "burns", "sampling", "cli")

# private helpers traced because a per-layer metric names them
PRIVATE_TARGETS = {
    "cli": ("_internal_invariants", "_write_csv"),
    "burns": ("_component_identity_residual",),
}


def _len_arg(index):
    return lambda args, kwargs, result: len(args[index])


def _real_grid_bytes(args, kwargs, result):
    """Bytes of the arrays real_grid builds, computed from their shapes: the
    2n meshgrid axes and their stacked copy (float64), the complex temporary
    and the complex result."""
    dim, per_axis = args[0], args[1]
    points = per_axis ** (2 * dim)
    return 2 * dim * points * 8 * 2 + dim * points * 16 * 2


# per-span size: rows, points or bytes, summed by the per-layer metrics
SIZE_OF = {
    "gradient.gradient_field": _len_arg(1),
    "levi.fields_at_many": _len_arg(1),
    "potential.evaluate_many": _len_arg(1),
    "cli._write_csv": _len_arg(2),
    "sampling.sample_domain": lambda args, kwargs, result: len(result),
    "sampling.real_grid": _real_grid_bytes,
    "foliation.trace_leaf": lambda args, kwargs, result: int(result.rho.size),
}


def layer_targets():
    """(owner, attribute, span name) for every traced name.

    A layer function is traced in each layer namespace that binds it, so calls
    from other modules and from inside its own module are both seen.
    """
    modules = {name: importlib.import_module(f"mafoliation.{name}") for name in LAYERS}
    targets = []
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not isinstance(obj, types.FunctionType):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__ != f"mafoliation.{home}" or home not in modules:
                continue
            if attr.startswith("_") and attr not in PRIVATE_TARGETS.get(mod_name, ()):
                continue
            targets.append((mod, attr, f"{home}.{obj.__name__}"))
    poly = modules["potential"].PolyExpr
    targets.append((poly, "evaluate", "potential.evaluate"))
    targets.append((poly, "evaluate_many", "potential.evaluate_many"))
    targets.append((np.linalg, "lstsq", "numpy.linalg.lstsq"))
    return targets


class Tracer:
    """Span arrays plus the stack of open spans (single-threaded use)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.op_names = []
        self.op_bounds = []
        self._stack = [-1]
        self._op_id = -1

    def _name(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        name_id = self._name(name)
        size_of = SIZE_OF.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self._op_id)
            self.size.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if size_of is not None:
                self.size[sid] = size_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Rebind every target to its traced wrapper; restore all on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def operation(self, name):
        """Tag the spans opened inside with one operation id."""
        self._op_id = len(self.op_names)
        self.op_names.append(name)
        del self._stack[1:]
        t0 = perf_counter()
        try:
            yield
        finally:
            self.op_bounds.append((t0, perf_counter()))
            self._op_id = -1

    def arrays(self):
        """Spans as numpy arrays, with self time = duration minus child spans."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "size": np.array(self.size, dtype=np.int64),
            "self": dur - child,
        }

    def write(self, path):
        """Write every span, the name table and the operation table to an .npz file."""
        arrays = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            op_names=np.array(self.op_names),
            op_bounds=np.array(self.op_bounds, dtype=float).reshape(-1, 2),
            **arrays,
        )
