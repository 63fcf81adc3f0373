"""Outside-in tracing of ``affine_ergo`` for the benchmark's traced run.

Every public function of the traced modules is wrapped, and every attribute
of every ``affine_ergo`` module that *is* that function is rebound to the
wrapper: the modules import each other's functions with ``from``-imports, so
``cli.char_fn`` and ``riccati.char_fn`` are two bindings of one function.  A
few public methods are wrapped on their class.  Nothing inside the package
changes, and a target that no longer exists is simply not wrapped.

Each call records a span ``(id, name, start, end, parent, info)`` in memory.
The parent is the innermost open span of the calling thread; a call made on a
worker thread with no open span of its own (the simulator's chunk pool) gets
the main thread's innermost open span, which is the call that started the
pool.  Per-layer metrics are derived from the spans after the traced pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("measures", "model", "mechanisms", "riccati", "simulator", "rng", "analysis", "cli")
METHODS = (
    ("riccati", "Vbar", "__init__"),
    ("riccati", "Vbar", "__call__"),
    ("riccati", "Vbar", "time_from"),
    ("measures", "LevySampler", "__init__"),
    ("measures", "LevySampler", "draw"),
)
BUNDLED = ("cir_ou", "jump_cbi_ou", "gamma_imm")
CHECKS = ("check_A", "check_B", "check_C", "check_Cprime", "check_D")
VBAR_SPANS = (
    "riccati.build_vbar_table",
    "riccati.Vbar.__init__",
    "riccati.Vbar.__call__",
    "riccati.Vbar.time_from",
)


class ModelNames:
    """Maps a ModelParams object to its bundled model name, or "other"."""

    def __init__(self, models: dict):
        self._by_json = {self._key(p): name for name, p in models.items()}
        self._seen: dict[int, tuple[object, str]] = {}

    @staticmethod
    def _key(params) -> str:
        return json.dumps(params.to_json(), sort_keys=True)

    def __call__(self, params) -> str:
        hit = self._seen.get(id(params))
        if hit is not None and hit[0] is params:
            return hit[1]
        try:
            name = self._by_json.get(self._key(params), "other")
        except Exception:  # a measure kind without a JSON form
            name = "other"
        self._seen[id(params)] = (params, name)
        return name


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _path_steps(cfg) -> int:
    return int(getattr(cfg, "n_paths", 0)) * int(getattr(cfg, "n_steps", 0))


class Tracer:
    """Rebinds the package's public callables to span-recording wrappers."""

    def __init__(self, model_names: ModelNames):
        self.spans: list[tuple] = []
        self._names = model_names
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._paused = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = 0
            sid = next(self._ids)
            stack.append(sid)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                info = None
                if hook is not None:
                    try:
                        info = hook(args, kwargs, out)
                    except Exception:  # a changed signature must not break the run
                        info = None
                with self._lock:
                    self.spans.append((sid, name, start, end, parent, info))

        return traced

    def _hooks(self) -> dict:
        names = self._names

        def solve_v(args, kwargs, out):
            return {
                "model": names(_arg(args, kwargs, 0, "params")),
                "nfev": int(getattr(out, "nfev", 0)),
                "nsteps": int(getattr(out, "nsteps", 0)),
            }

        def single(args, kwargs, out):
            cfg = _arg(args, kwargs, 2, "cfg")
            x = _arg(args, kwargs, 1, "x")
            key = ("single", names(_arg(args, kwargs, 0, "params")), repr(x))
            return {
                "key": key + (repr(cfg),),
                "input": key + (repr(dataclasses.replace(cfg, threads=1)),),
                "path_steps": _path_steps(cfg),
                "threads": cfg.threads,
            }

        def coupled(args, kwargs, out):
            cfg = _arg(args, kwargs, 3, "cfg")
            xy = (_arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y"))
            key = ("coupled", names(_arg(args, kwargs, 0, "params")), repr(xy), repr(cfg))
            return {"key": key, "path_steps": _path_steps(cfg)}

        def sampler_init(args, kwargs, out):
            return {"cells": int(len(getattr(args[0], "w", ())))}

        def sampler_draw(args, kwargs, out):
            return {"size": int(_arg(args, kwargs, 2, "size"))}

        return {
            "riccati.solve_V": solve_v,
            "simulator.simulate_paths": single,
            "simulator.simulate_coupled": coupled,
            "measures.LevySampler.__init__": sampler_init,
            "measures.LevySampler.draw": sampler_draw,
        }

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (reference values for checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"affine_ergo.{layer}")
            except ImportError:
                continue
        package = [m for n, m in sys.modules.items() if n == "affine_ergo" or n.startswith("affine_ergo.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in package:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapper)
                            self._undo.append((m, a, fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods.get(layer), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                continue
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(name, fn, hooks.get(name)))
            self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._undo):
            setattr(obj, attr, fn)
        self._undo.clear()

    def dump(self, path, record: dict) -> None:
        rows = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "info": s[5]}
            for s in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"record": record, "spans": rows}, fh, default=str)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.
    Children on two worker threads may overlap, hence the interval union."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = _union_length(
            (max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ()) if hi > start and lo < end
        )
        out[sid] = (end - start) - covered
    return out


def _outermost(spans, names) -> list[tuple]:
    """Spans with a name in `names` that have no ancestor with such a name."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        p = by_id.get(s[4])
        while p is not None and p[1] not in names:
            p = by_id.get(p[4])
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans) -> dict[str, float]:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def dur(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    m: dict[str, float] = {}

    solves = by_name.get("riccati.solve_V", [])
    m["riccati.solve_V.calls"] = len(solves)
    m["riccati.solve_V.s"] = dur("riccati.solve_V")
    m["riccati.rhs_evals"] = sum((s[5] or {}).get("nfev", 0) for s in solves)
    m["riccati.ode_steps"] = sum((s[5] or {}).get("nsteps", 0) for s in solves)
    for model in BUNDLED:
        mine = [s for s in solves if (s[5] or {}).get("model") == model]
        nfev = sum(s[5]["nfev"] for s in mine)
        m[f"riccati.s_per_rhs.{model}"] = sum(s[3] - s[2] for s in mine) / nfev if nfev else 0.0
    stat = by_name.get("riccati.stationary_transform", [])
    stat_ids = {s[0] for s in stat}
    inner = sum(1 for s in solves if s[4] in stat_ids)
    m["riccati.stationary.solves_per_call"] = inner / len(stat) if stat else 0.0
    m["riccati.vbar.points"] = len(by_name.get("riccati.Vbar.__call__", []))
    m["riccati.vbar.s"] = sum(s[3] - s[2] for s in _outermost(spans, set(VBAR_SPANS)))
    m["riccati.vbar.time_from_calls"] = len(by_name.get("riccati.Vbar.time_from", []))

    m["measures.levy_integral.calls"] = len(by_name.get("measures.levy_integral", []))
    m["measures.levy_integral.s"] = dur("measures.levy_integral")
    builds = by_name.get("measures.LevySampler.__init__", [])
    m["measures.sampler_build.s"] = dur("measures.LevySampler.__init__")
    m["measures.sampler_build.cells"] = sum((s[5] or {}).get("cells", 0) for s in builds)
    draws = by_name.get("measures.LevySampler.draw", [])
    m["measures.sampler_draw.calls"] = len(draws)
    m["measures.sampler_draw.s"] = dur("measures.LevySampler.draw")
    m["measures.jumps_drawn"] = sum((s[5] or {}).get("size", 0) for s in draws)

    sims = []
    for kind, name in (("single", "simulator.simulate_paths"), ("coupled", "simulator.simulate_coupled")):
        spans_k = by_name.get(name, [])
        secs = sum(s[3] - s[2] for s in spans_k)
        steps = sum((s[5] or {}).get("path_steps", 0) for s in spans_k)
        m[f"simulator.{kind}.s"] = secs
        m[f"simulator.{kind}.path_steps"] = steps
        m[f"simulator.{kind}.msteps_per_s"] = steps / secs / 1e6 if secs > 0 else 0.0
        sims += spans_k
    selfs = self_times(spans)

    def layer_self(layer):
        return sum(selfs[s[0]] for s in spans if s[1].split(".", 1)[0] == layer)

    m["simulator.self_s"] = layer_self("simulator")
    # the same model, start and config run at 1 and at 2 threads
    by_input = defaultdict(dict)
    for s in by_name.get("simulator.simulate_paths", []):
        info = s[5] or {}
        if "input" in info:
            runs = by_input[info["input"]]
            runs[info["threads"]] = runs.get(info["threads"], 0.0) + s[3] - s[2]
    t1 = sum(v[1] for v in by_input.values() if 1 in v and 2 in v)
    t2 = sum(v[2] for v in by_input.values() if 1 in v and 2 in v)
    m["simulator.thread_speedup"] = t1 / t2 if t2 > 0 else 0.0

    streams = by_name.get("rng.stream", [])
    m["rng.streams_opened"] = len(streams)
    m["rng.stream.s"] = dur("rng.stream")

    m["analysis.tv_hat.calls"] = len(by_name.get("analysis.tv_hat", []))
    m["analysis.tv_hat.s"] = dur("analysis.tv_hat")
    m["analysis.self_s"] = layer_self("analysis")
    simulated = sum((s[5] or {}).get("path_steps", 0) for s in sims)
    distinct = {}
    for s in sims:
        info = s[5] or {}
        if "key" in info:
            distinct[info["key"]] = info["path_steps"]
    m["analysis.sim_useful_ratio"] = sum(distinct.values()) / simulated if simulated else 0.0

    m["model.load.s"] = dur("model.load_model")
    m["model.validate.s"] = dur("model.validate")

    check_names = {f"mechanisms.{c}" for c in CHECKS}
    checks = _outermost(spans, check_names)
    m["mechanisms.checks.calls"] = len(checks)
    m["mechanisms.checks.s"] = sum(s[3] - s[2] for s in checks)

    m["cli.main.s"] = dur("cli.main")
    m["cli.self_s"] = layer_self("cli")
    return m
