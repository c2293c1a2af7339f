"""Spans around the public functions of each gcalg layer, for traced runs only.

``Tracer.install`` replaces the functions and methods named in ``TARGETS``
with timing wrappers, in the defining module and in every gcalg module that
bound the same object with ``from ... import``, so those calls do not
escape.  Each call records a span (name, start, end, parent) in flat arrays
kept in memory; ``uninstall`` puts the originals back.  A call made while
the innermost open span already has the same name is folded into it, so
``apply_generator`` dispatching to ``apply_odd`` counts one generator
application, not two.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute path) of every wrapped callable.
TARGETS = (
    ("cli", "gcalg.cli", "main"),
    *(("axioms." + check, "gcalg.axioms", "check_" + check) for check in (
        "zeta_root", "unitarity", "order", "commutation", "ground_identity",
        "projector_identity", "orthonormal_basis", "power_formula", "homomorphism",
    )),
    ("rep.apply_generator", "gcalg.rep", "apply_generator"),
    ("rep.apply_generator", "gcalg.rep", "apply_even"),
    ("rep.apply_generator", "gcalg.rep", "apply_odd"),
    ("rep.apply_element", "gcalg.rep", "apply_element"),
    ("rep.scalar_product", "gcalg.rep", "scalar_product"),
    ("rep.dense_matrix", "gcalg.rep", "dense_matrix"),
    ("rep.state_eq", "gcalg.rep", "QuditState.__eq__"),
    ("symbolic.normal_order", "gcalg.symbolic", "normal_order"),
    ("symbolic.monomial_mul", "gcalg.symbolic", "NormalMonomial.__mul__"),
    ("symbolic.element_mul", "gcalg.symbolic", "AlgebraElement.__mul__"),
    ("symbolic.element_mul", "gcalg.symbolic", "AlgebraElement.__rmul__"),
    ("symbolic.adjoint", "gcalg.symbolic", "AlgebraElement.adjoint"),
    ("cyclo.mul", "gcalg.cyclo", "CycloScalar.__mul__"),
    ("cyclo.mul", "gcalg.cyclo", "CycloScalar.__rmul__"),
    ("cyclo.add", "gcalg.cyclo", "CycloScalar.__add__"),
    ("cyclo.add", "gcalg.cyclo", "CycloScalar.__radd__"),
    ("cyclo.eq", "gcalg.cyclo", "CycloScalar.__eq__"),
    ("cyclo.is_zero", "gcalg.cyclo", "CycloScalar.is_zero"),
    ("cyclo.to_complex", "gcalg.cyclo", "CycloScalar.to_complex"),
    ("expr.parse", "gcalg.expr", "parse"),
    ("expr.eval", "gcalg.expr", "eval_element"),
    ("expr.eval", "gcalg.expr", "eval_state"),
    ("expr.eval", "gcalg.expr", "eval_scalar"),
    ("expr.print", "gcalg.expr", "print_canonical"),
)

GCALG_MODULES = ("gcalg", "gcalg.cli", "gcalg.axioms", "gcalg.rep",
                 "gcalg.symbolic", "gcalg.cyclo", "gcalg.expr")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            outer = tracer.current
            if outer >= 0 and span_name[outer] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            span_name.append(nid)
            parent.append(outer)
            end.append(0)
            tracer.current = idx
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                tracer.current = outer

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = wrappers.get(id(original))
            if wrapped is None:
                wrapped = wrappers[id(original)] = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if not cls_path:
                # Rebind copies made by `from ... import` in other modules.
                for other in GCALG_MODULES:
                    mod = sys.modules.get(other)
                    if mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns."""
        count = len(self.start)
        covered = array("q", bytes(8 * count))
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.span_name[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - covered[i]
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line, gzipped; return the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\n")
        return len(self.start)
