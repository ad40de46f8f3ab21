"""Span tracing of the package from outside it.

install() rebinds every public function of the six layer modules, and
cli.cmd_verify, in the namespace of every package module that holds it, to
a wrapper that records a span: (id, parent id, name, start, end, raised,
scalar first argument, probe). Spans stay in memory; layer_metrics() turns
one pass's spans into the per-layer numbers, and write() saves them.
The benchmark runs at parallelism 1, so one span stack serves every call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import time
from collections import defaultdict

import numpy as np


LAYERS = ("weierstrass", "kronecker", "logsheaf", "polylog", "eisenstein", "numerics")
MODULES = LAYERS + ("cli",)
CONTOURS = ("numerics.cauchy_coeffs", "numerics.contour_integral")
# units by the last part of a metric name; every other metric is a time in s
UNITS = {
    "calls": "count", "errors": "count", "points": "count", "points_per_call": "points/call",
    "tau_repeat_share": "share", "cauchy_calls": "count", "contour_nodes": "count",
    "node_useful_share": "share", "scalar_fallback_evals": "count",
    "finite_diff_calls": "count", "stencil_evals": "count", "ordered_map_items": "count",
    "s_coeffs_calls": "count", "naive_terms": "count", "specialize_calls": "count",
}


def unit(metric: str) -> str:
    return UNITS.get(metric.split(".")[-1], "s")


def _arg(args, kwargs, index, name, default=None):
    if index is not None and index < len(args):
        return args[index]
    return kwargs.get(name, default)


def _probe(name: str, fn):
    """What a span records about its arguments, or None."""
    layer = name.split(".")[0]
    params = list(inspect.signature(fn).parameters)

    def pos(p):
        return params.index(p) if p in params else None

    if layer == "weierstrass":
        zi, ti = pos("z"), pos("tau")

        def weierstrass(args, kwargs):
            z = _arg(args, kwargs, zi, "z")
            tau = _arg(args, kwargs, ti, "tau")
            return (int(np.size(z)) if zi is not None else 0,
                    complex(getattr(tau, "tau", tau)) if tau is not None else None)
        return weierstrass
    if name == "numerics.cauchy_coeffs":
        def cauchy(args, kwargs):
            cfg = _arg(args, kwargs, 2, "cfg")
            samples = (cfg.samples, 2 * cfg.samples) if cfg.self_check else (cfg.samples,)
            return (complex(_arg(args, kwargs, 3, "center", 0.0)), cfg.radius, samples)
        return cauchy
    if name == "numerics.contour_integral":
        return lambda args, kwargs: (complex(_arg(args, kwargs, 1, "center")),
                                     _arg(args, kwargs, 2, "radius"),
                                     (_arg(args, kwargs, 3, "samples", 256),))
    if name == "numerics.finite_diff":
        return lambda args, kwargs: 2 * (_arg(args, kwargs, 2, "cfg").richardson_levels + 1)
    if name == "numerics.ordered_map":
        return lambda args, kwargs: len(_arg(args, kwargs, 1, "items"))
    if name == "eisenstein.F":
        def query(args, kwargs):
            q = _arg(args, kwargs, 0, "query")
            return (q.mode, q.trunc.shell_radius if q.mode == "naive" else 0)
        return query
    return None


class Tracer:
    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list = []
        self.spans: list = []
        self._ids = itertools.count()
        self._stack: list = []
        self._bound: list = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = self.mods[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[obj] = f"{layer}.{attr}"
        originals[self.mods["cli"].cmd_verify] = "cli.cmd_verify"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._bound:
            setattr(mod, attr, obj)
        self._bound.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return sorted(spans)

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        probe = _probe(name, fn)
        ids, stack, clock = self._ids, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            a0 = args[0] if args else None
            x0 = complex(a0) if isinstance(a0, (complex, float)) else None
            info = probe(args, kwargs) if probe else None
            stack.append(sid)
            raised = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, idx, t0, t1, raised, x0, info))

        return functools.update_wrapper(wrapper, fn)

    def write(self, path, spans: list) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, idx, t0, t1, raised, _, _ in spans:
                fh.write(json.dumps([sid, parent, self.names[idx], t0, t1, raised]) + "\n")


def _covered(intervals: list) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _nodes(center: complex, radius: float, samples: int) -> set:
    # the same expression numerics._circle_values evaluates
    return set((center + radius * np.exp(2j * np.pi * np.arange(samples) / samples)).tolist())


def layer_metrics(spans: list, names: list) -> dict:
    """Per-layer metrics of one pass. A layer's calls are the spans entered
    from outside it; self time is a span's duration minus the part of it
    that its child spans cover."""
    module = [n.split(".")[0] for n in names]
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    m = {f"{mod}.{key}": 0 for mod in MODULES for key in ("calls", "self_s", "errors")}
    m.update({k: 0 for k in (
        "weierstrass.points", "weierstrass.tau_repeat_share", "numerics.cauchy_calls",
        "numerics.contour_nodes", "numerics.node_useful_share", "numerics.scalar_fallback_evals",
        "numerics.finite_diff_calls", "numerics.stencil_evals", "numerics.ordered_map_items",
        "kronecker.s_coeffs_calls", "eisenstein.naive_s", "eisenstein.lipschitz_s",
        "eisenstein.naive_terms", "polylog.specialize_calls")})
    taus_seen, tau_entries, tau_repeats = set(), 0, 0
    useful = 0
    node_sets: dict = {}
    for sid, parent, idx, t0, t1, raised, x0, info in spans:
        name, mod = names[idx], module[idx]
        kids = children.get(sid, ())
        m[f"{mod}.self_s"] += (t1 - t0) - _covered([(max(k[3], t0), min(k[4], t1)) for k in kids])
        m[f"{mod}.errors"] += raised
        entry = parent not in by_id or module[by_id[parent][2]] != mod
        m[f"{mod}.calls"] += entry
        if mod == "weierstrass" and entry:
            points, tau = info
            m["weierstrass.points"] += points
            if tau is not None:
                tau_entries += 1
                tau_repeats += tau in taus_seen
                taus_seen.add(tau)
        elif name in CONTOURS:
            center, radius, samples = info
            m["numerics.cauchy_calls"] += name == "numerics.cauchy_coeffs"
            m["numerics.contour_nodes"] += sum(samples)
            useful += 0 if raised else samples[-1]
            nodes = set()
            for s in samples:
                key = (center, radius, s)
                if key not in node_sets:
                    node_sets[key] = _nodes(center, radius, s)
                nodes |= node_sets[key]
            m["numerics.scalar_fallback_evals"] += sum(k[6] is not None and k[6] in nodes for k in kids)
        elif name == "numerics.finite_diff":
            m["numerics.finite_diff_calls"] += 1
            m["numerics.stencil_evals"] += info
        elif name == "numerics.ordered_map":
            m["numerics.ordered_map_items"] += info
        elif name == "kronecker.s_coeffs":
            m["kronecker.s_coeffs_calls"] += 1
        elif name == "eisenstein.F":
            mode, R = info
            m[f"eisenstein.{mode}_s"] += t1 - t0
            if mode == "naive":
                m["eisenstein.naive_terms"] += (2 * R + 1) ** 2 - 1
        elif name == "polylog.specialize_eisenstein":
            m["polylog.specialize_calls"] += 1
    calls = m["weierstrass.calls"]
    m["weierstrass.points_per_call"] = m["weierstrass.points"] / calls if calls else 0.0
    m["weierstrass.tau_repeat_share"] = tau_repeats / tau_entries if tau_entries else 0.0
    nodes = m["numerics.contour_nodes"]
    m["numerics.node_useful_share"] = useful / nodes if nodes else 0.0
    del m["numerics.calls"], m["cli.calls"]  # not among the reported metrics
    return m
