"""Opt-in tracing of tcpkit's layers from outside the package.

``Tracer.install`` replaces each traced function at every ``tcpkit`` module
attribute that holds the same object (so ``from .tensor import apply_m1``
bindings are caught) and then fails loudly if an original is still
reachable.  Spans (name, parent, start, end) are kept in memory in compact
arrays and written out at the end; self time is a span's duration minus the
time its child spans cover.  Counts are taken at the same boundaries from
the arguments and return values.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer -> (module, traced functions); "Tensor.to_dense" is a method
LAYERS = {
    "tensor": ("tcpkit.tensor", ("apply_m1", "jacobian_m1", "batch_apply_m1",
                                 "Tensor.to_dense", "principal_subtensor",
                                 "apply_off", "tensor_from_dense")),
    "polysys": ("tcpkit._polysys", ("scan_system", "newton_refine",
                                    "min_sphere_norm")),
    "compcones": ("tcpkit.compcones", ("q_membership",)),
    "solver": ("tcpkit.solver", ("solve_enumerate", "refine", "residual")),
    "classify": ("tcpkit.classify", ("min_over_basis",)),
    "cones": ("tcpkit.cones", ("dist", "extreme_rays", "tangent_cone")),
    "stability": ("tcpkit.stability", (
        "local_uniqueness_certificate", "perturb_existence", "error_bound_probe",
        "usc_probe", "unsolvable_neighborhood_probe",
        "nonsingularity_openness_probe")),
}

OP = "op"  # the span the benchmark records around each op


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.split('.')[-1]}"


def _scan_outcome(scan) -> str:
    if scan.reason == "sign analysis":
        return "sign"
    if scan.reason.startswith("scalar"):
        return "scalar"
    if scan.roots:
        return "roots"
    if scan.certified_infeasible:
        return "box_grid"
    return "inconclusive"


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names = [OP] + [span_name(layer, f) for layer, (_, fs) in LAYERS.items()
                             for f in fs]
        self._sid = {n: i for i, n in enumerate(self.names)}
        # spans
        self.s_name = array("H")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # aggregates, indexed by span id
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.edges = defaultdict(int)      # (child id, parent id) -> calls
        self.extra = defaultdict(float)
        self._stack = []                   # [span index, id, child time, start]
        self._restore = []
        self._children = 0
        self._merged = []                  # raw counts of traced child processes

    # -- spans ---------------------------------------------------------------
    def _enter(self, sid: int) -> list:
        stack = self._stack
        idx = len(self.s_name)
        self.s_name.append(sid)
        self.s_parent.append(stack[-1][0] if stack else -1)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        frame = [idx, sid, 0.0, 0.0]
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        idx, sid, child, t0 = frame
        dur = t1 - t0
        self.s_start[idx] = t0
        self.s_end[idx] = t1
        self.calls[sid] += 1
        self.incl[sid] += dur
        self.self_s[sid] += dur - child
        if stack:
            parent = stack[-1]
            parent[2] += dur
            self.edges[sid, parent[1]] += 1

    def op(self, fn, *args):
        frame = self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        sid = self._sid[name]
        enter, exit_ = self._enter, self._exit
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            frame = enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        import tcpkit  # noqa: F401  (loads every submodule)
        from tcpkit._polysys import SYS_TOL

        self._sys_tol = SYS_TOL

        originals = {}
        for layer, (modname, funcs) in LAYERS.items():
            mod = importlib.import_module(modname)
            for func in funcs:
                owner = mod
                attr = func
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(mod, cls)
                fn = getattr(owner, attr)
                wrapped = self._wrap(span_name(layer, func), fn)
                originals[id(fn)] = (fn, wrapped, f"{modname}.{func}")
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, fn))
        for mod in self._tcpkit_modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and value is hit[0]:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        self._assert_complete(originals)

    @staticmethod
    def _tcpkit_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "tcpkit" or n.startswith("tcpkit."))]

    def _assert_complete(self, originals) -> None:
        leaks = []
        for mod in self._tcpkit_modules():
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and value is hit[0]:
                    leaks.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        hit = originals.get(id(cvalue))
                        if hit is not None and cvalue is hit[0]:
                            leaks.append(f"{mod.__name__}.{attr}.{cattr}")
        if leaks:
            self.uninstall()
            raise RuntimeError("traced functions still reachable unwrapped: "
                               + ", ".join(sorted(leaks)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- counts read from arguments and results ------------------------------
    def _post_tensor_apply_m1(self, args, result):
        A = args[0]
        self.extra["tensor.apply_m1.flops"] += A.nnz * A.order

    def _post_tensor_batch_apply_m1(self, args, result):
        self.extra["tensor.batch_apply_m1.points"] += len(args[1])

    def _post_polysys_scan_system(self, args, result):
        self.extra["polysys.scan_system.outcome." + _scan_outcome(result)] += 1

    def _post_polysys_newton_refine(self, args, result):
        if result[1] <= self._sys_tol:
            self.extra["polysys.newton_refine.roots"] += 1

    def _post_compcones_q_membership(self, args, result):
        self.extra["compcones.subsets_examined"] += result.subsets_examined
        key = {True: "member", False: "non_member", None: "unknown"}[result.member]
        self.extra["compcones.verdict." + key] += 1

    def _post_solver_solve_enumerate(self, args, result):
        self.extra["solver.solve_enumerate.unknown"] += bool(result.unknown)

    def _post_solver_refine(self, args, result):
        self.extra["solver.refine.converged"] += bool(result.converged)

    def _post_classify_min_over_basis(self, args, result):
        self.extra["classify.min_over_basis.evaluations"] += result[2]

    # -- output --------------------------------------------------------------
    def raw(self) -> dict:
        """Counts keyed by span name, merged with those of traced children."""
        names = self.names
        out = {"calls": {}, "incl": {}, "self": {}, "edges": {},
               "extra": dict(self.extra)}
        for sid, name in enumerate(names):
            if self.calls[sid]:
                out["calls"][name] = self.calls[sid]
                out["incl"][name] = self.incl[sid]
                out["self"][name] = self.self_s[sid]
        for (sid, psid), count in self.edges.items():
            out["edges"][f"{names[sid]}<{names[psid]}"] = count
        for child in self._merged:
            for key, table in child.items():
                for k, v in table.items():
                    out[key][k] = out[key].get(k, 0) + v
        return out

    def child_output_path(self) -> str:
        """Where a traced child process writes its spans and counts."""
        self._children += 1
        return os.path.join(self.out_dir, f"child-{self._children}.npz")

    def merge_children(self) -> int:
        merged = 0
        for i in range(1, self._children + 1):
            path = os.path.join(self.out_dir, f"child-{i}.npz")
            if os.path.exists(path):
                with np.load(path) as z:
                    self._merged.append(json.loads(str(z["raw"])))
                merged += 1
        return merged

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.s_name, np.uint16),
            parent=np.frombuffer(self.s_parent, np.int32),
            start=np.frombuffer(self.s_start, np.float64),
            end=np.frombuffer(self.s_end, np.float64),
            raw=np.array(json.dumps(self.raw())))


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics from merged raw counts (every key always present)."""
    calls = defaultdict(int, raw["calls"])
    self_s = defaultdict(float, raw["self"])
    incl = defaultdict(float, raw["incl"])
    edges = defaultdict(int, raw["edges"])
    extra = defaultdict(float, raw["extra"])

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    for name in ("tensor.apply_m1", "tensor.jacobian_m1"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.us_per_call"] = per(self_s[name], calls[name], 1e6)
    out["tensor.apply_m1.flops"] = extra["tensor.apply_m1.flops"]
    b = "tensor.batch_apply_m1"
    out[f"{b}.calls"] = calls[b]
    out[f"{b}.self_s"] = self_s[b]
    out[f"{b}.points"] = extra[f"{b}.points"]
    out[f"{b}.ns_per_point"] = per(self_s[b], extra[f"{b}.points"], 1e9)
    for f in ("to_dense", "principal_subtensor", "apply_off", "tensor_from_dense",
              "polysys.min_sphere_norm", "compcones.q_membership", "solver.residual",
              "cones.dist", "cones.extreme_rays", "cones.tangent_cone"):
        name = f if "." in f else f"tensor.{f}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    s = "polysys.scan_system"
    out[f"{s}.calls"] = calls[s]
    out[f"{s}.self_s"] = self_s[s]
    for k in ("sign", "scalar", "box_grid", "roots", "inconclusive"):
        out[f"{s}.outcome.{k}"] = extra[f"{s}.outcome.{k}"]
    nr = "polysys.newton_refine"
    out[f"{nr}.calls"] = calls[nr]
    out[f"{nr}.self_s"] = self_s[nr]
    out[f"{nr}.root_rate"] = per(extra[f"{nr}.roots"], calls[nr])
    contractions = edges[f"tensor.apply_m1<{nr}"]
    out[f"{nr}.contractions_per_call"] = per(contractions, calls[nr])
    out[f"{nr}.evals_per_jacobian"] = per(contractions, edges[f"tensor.jacobian_m1<{nr}"])
    out["compcones.supports_per_query"] = per(extra["compcones.subsets_examined"],
                                              calls["compcones.q_membership"])
    for k in ("member", "non_member", "unknown"):
        out[f"compcones.verdict.{k}"] = extra[f"compcones.verdict.{k}"]
    se = "solver.solve_enumerate"
    out[f"{se}.calls"] = calls[se]
    out[f"{se}.self_s"] = self_s[se]
    out[f"{se}.unknown"] = extra[f"{se}.unknown"]
    r = "solver.refine"
    out[f"{r}.calls"] = calls[r]
    out[f"{r}.self_s"] = self_s[r]
    out[f"{r}.converged_rate"] = per(extra[f"{r}.converged"], calls[r])
    mb = "classify.min_over_basis"
    out[f"{mb}.calls"] = calls[mb]
    out[f"{mb}.self_s"] = self_s[mb]
    out[f"{mb}.evaluations"] = extra[f"{mb}.evaluations"]
    for probe in LAYERS["stability"][1]:
        name = f"stability.{probe}"
        out[f"{name}.s"] = per(incl[name], calls[name])
    return out
