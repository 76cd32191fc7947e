"""In-memory span tracing of the digrowth layers, installed from outside.

The tracer replaces module attributes with timing wrappers: every public
function a digrowth module defines, the private writers named in ``EXTRA``,
and every other module's binding of the same function object (``from .dynamics
import growth_rate`` binds ``explorer.growth_rate``), so calls are caught
whichever name the caller uses.  Each span records the span that caused it;
the benchmark's own spans (a query, a reproduce producer) are the roots.
``uninstall`` restores the originals.

A name listed in ``EXTRA`` or used by ``layer_metrics`` that the program no
longer has reads as absent: its counts are 0 and it is listed in
``Tracer.absent``.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("spectral", "dynamics", "asymptotics", "explorer", "cli", "stochastic")
# private layers the metrics need: the CSV writers of ``dig reproduce``
EXTRA = ("cli._write_curve_csv", "cli._write_sweep_csv")
# the functions ``layer_metrics`` reads; any that is missing reads as absent
LAYERS = ("spectral.expm", "spectral.perron_positive",
          "spectral.perron_frobenius_metzler", "spectral.is_irreducible",
          "dynamics.growth_rate", "dynamics.merged_segments",
          "asymptotics.limit_Tinf", "asymptotics.m_star", "explorer.sweep",
          "explorer.critical_curve", "explorer.growth_band",
          "stochastic.simulate_lyapunov", "stochastic.stationary_distribution")


def _sweep_attrs(grid) -> dict:
    return {"cells": int(grid.lam.size), "failed": int((grid.status != "ok").sum())}


def _simulate_attrs(est) -> dict:
    return {"jumps": int(est.renormalizations)}


# results a span keeps a summary of, by span name
RESULT_ATTRS = {"explorer.sweep": _sweep_attrs,
                "stochastic.simulate_lyapunov": _simulate_attrs}


class Tracer:
    """Spans as parallel arrays of id, parent id, name, start and end, plus
    result summaries by id; single-threaded.  Flat arrays of numbers keep
    the garbage collector out of the traced rounds."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"digrowth.{name}")
                        for name in MODULES}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids, self.parents, self.name_ix = array("q"), array("q"), array("q")
        self.starts, self.ends = array("d"), array("d")
        self.attrs: dict[int, dict] = {}
        self.absent: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []
        self._targets = self._discover()

    def _discover(self) -> dict:
        """Function object -> span name, for every function to wrap."""
        targets = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{attr}"
        for full in EXTRA:
            short, attr = full.split(".", 1)
            obj = getattr(self.modules[short], attr, None)
            if inspect.isfunction(obj):
                targets[obj] = full
        found = set(targets.values())
        self.absent = [name for name in LAYERS + EXTRA if name not in found]
        return targets

    def _wrap(self, fn, name: str):
        """fn inside a span named ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        ix = self._name_ids[name]
        summarize = RESULT_ATTRS.get(name)
        stack, ids, parents = self._stack, self.ids, self.parents
        name_ix, starts, ends = self.name_ix, self.starts, self.ends

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    self.attrs[sid] = summarize(result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                name_ix.append(ix)
                starts.append(t0)
                ends.append(t1)
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        return self._wrap(fn, name)(*args, **kwargs)

    def spans(self):
        """(id, parent, name, start, end, attrs) in order of completion."""
        for k, sid in enumerate(self.ids):
            yield (sid, self.parents[k], self.names[self.name_ix[k]],
                   self.starts[k], self.ends[k], self.attrs.get(sid))

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s", "attrs"])
            for sid, parent, name, t0, t1, attrs in self.spans():
                w.writerow([sid, parent, name, f"{t0:.9f}", f"{t1:.9f}",
                            "" if attrs is None else attrs])


def layer_metrics(spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as (value, unit), from the spans of ``rounds``
    traced rounds.

    Counts are per round, so they repeat exactly from run to run on the same
    inputs; ``ms`` figures are inclusive wall time per round; ``us_per_call``
    is inclusive time per call.  A layer that never ran reads 0.
    """
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    memo: dict[int, frozenset] = {}

    def ancestors(sid: int) -> frozenset:
        """Names of the spans above span ``sid``."""
        if sid not in memo:
            parent = by_id[sid][1]
            memo[sid] = (ancestors(parent) | {by_id[parent][2]} if parent
                         else frozenset())
        return memo[sid]

    calls = defaultdict(int)
    total = defaultdict(float)
    outer = defaultdict(float)   # time in spans with no same-name ancestor
    attr_sum = defaultdict(float)
    under = defaultdict(int)     # growth_rate calls below a caller
    for sid, parent, name, t0, t1, attrs in spans:
        dt = t1 - t0
        calls[name] += 1
        total[name] += dt
        anc = ancestors(sid)
        if name not in anc:
            outer[name] += dt
        if attrs:
            for key, value in attrs.items():
                attr_sum[f"{name}.{key}"] += value
                if key == "cells" and "explorer.critical_curve" in anc:
                    attr_sum["critical_curve.grid_cells"] += value
        if name == "dynamics.growth_rate":
            if "explorer.critical_curve" in anc and "explorer.sweep" not in anc:
                under["refine"] += 1
            if "explorer.growth_band" in anc:
                under["band"] += 1
            if "cli._write_curve_csv" in anc:
                under["residual"] += 1

    def count(x: float) -> tuple[float, str]:
        return x / rounds, "count"

    def ms(seconds: float) -> tuple[float, str]:
        return seconds / rounds * 1e3, "ms"

    def us(seconds: float, n: float) -> tuple[float, str]:
        return (seconds / n * 1e6 if n else 0.0), "us"

    def us_per_call(name: str) -> tuple[float, str]:
        return us(total[name], calls[name])

    sweep_s = outer["explorer.sweep"]
    jumps = attr_sum["stochastic.simulate_lyapunov.jumps"]
    cells_per_s = attr_sum["explorer.sweep.cells"] / sweep_s if sweep_s else 0.0
    return {
        "spectral.expm.calls": count(calls["spectral.expm"]),
        "spectral.expm.us_per_call": us_per_call("spectral.expm"),
        "spectral.perron_positive.calls": count(calls["spectral.perron_positive"]),
        "spectral.perron_positive.us_per_call":
            us_per_call("spectral.perron_positive"),
        "spectral.perron_frobenius_metzler.us_per_call":
            us_per_call("spectral.perron_frobenius_metzler"),
        "spectral.is_irreducible.calls": count(calls["spectral.is_irreducible"]),
        "dynamics.growth_rate.calls": count(calls["dynamics.growth_rate"]),
        "dynamics.growth_rate.us_per_call": us_per_call("dynamics.growth_rate"),
        "dynamics.merged_segments.calls":
            count(calls["dynamics.merged_segments"]),
        "asymptotics.limit_Tinf.calls": count(calls["asymptotics.limit_Tinf"]),
        "asymptotics.m_star.ms": ms(outer["asymptotics.m_star"]),
        "explorer.sweep.ms": ms(sweep_s),
        "explorer.sweep.cells_per_s": (cells_per_s, "1/s"),
        "explorer.sweep.failed_cells": count(attr_sum["explorer.sweep.failed"]),
        "explorer.critical_curve.grid_evals":
            count(attr_sum["critical_curve.grid_cells"]),
        "explorer.critical_curve.refine_evals": count(under["refine"]),
        "explorer.critical_curve.ms": ms(outer["explorer.critical_curve"]),
        "explorer.growth_band.evals": count(under["band"]),
        "explorer.growth_band.ms": ms(outer["explorer.growth_band"]),
        "cli.reproduce.ms": ms(outer["cli.reproduce"]),
        "cli.residual_evals": count(under["residual"]),
        "stochastic.jumps": count(jumps),
        "stochastic.us_per_jump": us(total["stochastic.simulate_lyapunov"], jumps),
        "stochastic.stationary_distribution.us_per_call":
            us_per_call("stochastic.stationary_distribution"),
    }
