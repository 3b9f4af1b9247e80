"""Span tracer for the per-layer run.

``Tracer.install`` wraps every public function defined in a layer module of
``lidskii`` and rebinds the wrapper wherever a ``lidskii`` module holds the
original (``from .curves import build_curve`` copies the function into the
importing namespace, so rebinding only the defining module would miss those
calls).  Nothing in ``src`` changes.

A span records name, start, end, parent span and operation id.  Spans stay
in flat arrays in memory and are written out once, by ``save``.  Self time is
a span's duration minus the time its child spans cover.  Wrappers record only
while ``active`` is set, so the benchmark's own checks are not traced.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "jsonio", "eig_orbit", "sv_orbit", "frames",
    "_kernels", "curves", "norms", "matrices", "backend",
)


def metric_prefix(qualname):
    """Metric names start with a letter: ``_kernels.x`` becomes ``kernels.x``."""
    return qualname.lstrip("_")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, seconds covered by children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.iters = []  # per frame_descent call
        self.op_id = -1
        self.active = False
        self._bound = []  # (module, attribute, original)

    # -- spans

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, nid):
        end = time.perf_counter()
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[nid]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def op(self, op_id, kind, fn):
        """Run one benchmark operation under a root span ``op.<kind>``; the
        wrappers record only inside it."""
        self.op_id = op_id
        nid = self._name_id(f"op.{kind}")
        self.active = True
        self._open(nid)
        try:
            return fn()
        finally:
            self._close(nid)
            self.active = False

    # -- wrapping

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(nid)
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lidskii.{layer}")
            for attr, obj in vars(module).items():
                # a def under its own public name; aliases such as
                # ``frame_descent_py = _frame_descent_impl`` are not boundaries
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and obj.__name__ == attr
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lidskii" and not mod_name.startswith("lidskii."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._bound.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._bound):
            setattr(module, attr, obj)
        self._bound.clear()

    # -- output

    def save(self, path):
        """Write every span as arrays: name id, op id, parent index, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self):
        """Per-layer figures of the traced passes, keyed by metric name."""
        ms = lambda name: 1e3 * self.self_s[name]  # noqa: E731
        m = {}
        for name in (
            "_kernels.frame_descent", "frames.best_of_restarts", "frames.gradient_descent",
            "frames.subgradient_descent", "frames.structure_check", "frames.psd_lower_bound",
            "matrices.haar_unitary", "eig_orbit.certify_local", "sv_orbit.certify_local",
            "curves.build_curve", "cli.main", "jsonio.load_json", "jsonio.dumps",
            "norms.evaluate", "norms.norm_gradient",
        ):
            p = metric_prefix(name)
            m[f"{p}.calls"] = self.calls[name]
            m[f"{p}.self_ms"] = ms(name)
        for name in (
            "norms.gauge_from_eigs", "eig_orbit.joint_diagonalize", "sv_orbit.joint_svd",
            "eig_orbit.givens_descent_curve", "cli.build_parser",
            "sv_orbit.sv_orbit_sample_values", "_kernels.orbit_spectra", "_kernels.psd_spectra",
        ):
            m[f"{metric_prefix(name)}.self_ms"] = ms(name)
        m["jsonio.any_to_json.self_ms"] = sum(
            ms(n) for n in self.self_s if n.startswith("jsonio.") and n.endswith("_to_json")
        )
        c = self.counts
        iters = np.asarray(self.iters, dtype=float)
        m["kernels.frame_descent.iters"] = float(iters.sum())
        m["kernels.frame_descent.us_per_iter"] = (
            1e6 * self.self_s["_kernels.frame_descent"] / iters.sum() if iters.sum() else 0.0
        )
        m["kernels.frame_descent.iters_p50"] = float(np.percentile(iters, 50)) if iters.size else 0.0
        m["kernels.frame_descent.iters_p90"] = float(np.percentile(iters, 90)) if iters.size else 0.0
        m["kernels.frame_descent.cap_hits"] = c["frame_descent.cap_hits"]
        m["kernels.frame_descent.stalls"] = c["frame_descent.stalls"]
        m["frames.subgradient_descent.iters"] = c["subgradient_descent.iters"]
        for kernel in ("orbit_spectra", "psd_spectra"):
            samples = c[f"{kernel}.samples"]
            busy = self.total_s[f"_kernels.{kernel}"]
            m[f"kernels.{kernel}.samples"] = samples
            m[f"kernels.{kernel}.samples_per_s"] = samples / busy if busy else 0.0
            m[f"kernels.{kernel}.bytes_per_sample_computed"] = (
                c[f"{kernel}.bytes"] / samples if samples else 0.0
            )
        busy = self.total_s["sv_orbit.sv_orbit_sample_values"]
        m["sv_orbit.sv_orbit_sample_values.samples_per_s"] = (
            c["sv_orbit_sample_values.samples"] / busy if busy else 0.0
        )
        for layer in ("eig_orbit", "sv_orbit"):
            for verdict in ("certified_global", "not_local_min", "inconclusive"):
                key = "certified" if verdict == "certified_global" else verdict
                m[f"{layer}.certify_local.{key}"] = c[f"{layer}.certify_local.{verdict}"]
            m[f"{layer}.certify_local.inconclusive_ms"] = 1e3 * c[f"{layer}.certify_local.inconclusive_s"]
        m["curves.trim_to_descent.calls"] = self.calls["curves.trim_to_descent"]
        m["curves.trim_to_descent.accepted"] = c["trim_to_descent.accepted"]
        m["matrices.skew_exp.calls"] = self.calls["matrices.skew_exp"]
        m["jsonio.load_json.bytes"] = c["load_json.bytes"]
        m["jsonio.dumps.bytes"] = c["dumps.bytes"]
        for layer in LAYERS:
            m[f"{metric_prefix(layer)}.layer_self_ms"] = sum(
                ms(n) for n in self.self_s if n.startswith(layer + ".")
            )
        return m


# -- hooks: counters read from arguments and results at the layer boundary


def _frame_descent(t, args, result, dur):
    iters = len(result[1]) - 1
    t.iters.append(iters)
    if iters >= int(args[3]):
        t.counts["frame_descent.cap_hits"] += 1
    elif result[3] == 0:
        t.counts["frame_descent.stalls"] += 1


def _subgradient_descent(t, args, result, dur):
    t.counts["subgradient_descent.iters"] += result[1].iterations


def _spectra(kernel):
    def hook(t, args, result, dur):
        gaussians = np.asarray(args[2])
        t.counts[f"{kernel}.samples"] += gaussians.shape[0]
        t.counts[f"{kernel}.bytes"] += gaussians.nbytes + np.asarray(result).nbytes

    return hook


def _sv_samples(t, args, result, dur):
    t.counts["sv_orbit_sample_values.samples"] += int(args[3])


def _certify(layer):
    def hook(t, args, result, dur):
        t.counts[f"{layer}.certify_local.{result.verdict}"] += 1
        if result.verdict == "inconclusive":
            t.counts[f"{layer}.certify_local.inconclusive_s"] += dur

    return hook


def _trim(t, args, result, dur):
    if result is not None:
        t.counts["trim_to_descent.accepted"] += 1


def _load_json(t, args, result, dur):
    t.counts["load_json.bytes"] += os.path.getsize(args[0])


def _dumps(t, args, result, dur):
    t.counts["dumps.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "_kernels.frame_descent": _frame_descent,
    "frames.subgradient_descent": _subgradient_descent,
    "_kernels.orbit_spectra": _spectra("orbit_spectra"),
    "_kernels.psd_spectra": _spectra("psd_spectra"),
    "sv_orbit.sv_orbit_sample_values": _sv_samples,
    "eig_orbit.certify_local": _certify("eig_orbit"),
    "sv_orbit.certify_local": _certify("sv_orbit"),
    "curves.trim_to_descent": _trim,
    "jsonio.load_json": _load_json,
    "jsonio.dumps": _dumps,
}
