"""Command-line interface.

Subcommands: validate, catalog, lambda, limits, sweep, critical, classify,
simulate, reproduce.  Models are either catalog names (parameters allowed
inline, e.g. ``pm1(0.5)``) or paths to JSON model files.  All numeric output
is printed with 15 significant digits; errors go to stderr as JSON objects.
Exit codes: 0 success, 1 internal/numerical error, 2 validation/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import (asymptotics, dynamics, explorer, model as model_mod, spectral,
               stochastic)

DIGITS = 15
_FORMAT = f".{DIGITS}g"


def _fmt(x: float) -> str:
    """15 significant digits; ``nan``, ``inf`` and ``-inf`` as such."""
    return format(x, _FORMAT)


def _write_rows(out, header: list[str], rows) -> None:
    """CSV lines of already formatted fields, ended by ``\\r\\n`` as
    ``csv.writer`` ends them; no field needs quoting."""
    out.write(",".join(header) + "\r\n")
    out.writelines(",".join(row) + "\r\n" for row in rows)


def _render(obj) -> str:
    """JSON with floats at 15 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_render(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        v = _fmt(obj)
        return json.dumps(v) if v in ("nan", "inf", "-inf") else v
    return json.dumps(obj)


def _emit(obj) -> None:
    print(_render(obj))


def _fail(code: int, kind: str, message: str) -> int:
    print(_render({"error": kind, "message": message}), file=sys.stderr)
    return code


class UsageError(Exception):
    pass


def _resolve_model(ref: str) -> model_mod.PatchModel:
    if os.path.exists(ref) or ref.endswith(".json"):
        return model_mod.load(ref)
    return model_mod.builtin(ref)


def _parse_range(text: str, what: str):
    """a:b:n -> (a, b, n)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{what} expects a:b:n")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --{what}: {exc}") from exc


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_sweep_csv(grid: explorer.SweepGrid, out) -> None:
    Ts = [_fmt(T) for T in grid.T_values.tolist()]
    rows = ((m, T, _fmt(lam), status)
            for m, lams, statuses in zip(map(_fmt, grid.m_values.tolist()),
                                         grid.lam.tolist(),
                                         grid.status.tolist())
            for T, lam, status in zip(Ts, lams, statuses))
    _write_rows(out, ["m", "T", "lambda", "status"], rows)


def _write_curve_csv(curve: explorer.CriticalCurve, out) -> None:
    rows = ((str(b), _fmt(m), _fmt(T), _fmt(1.0 / T), _fmt(res))
            for b, (branch, residuals) in enumerate(zip(curve.branches,
                                                        curve.residuals))
            for (m, T), res in zip(branch.tolist(), residuals.tolist()))
    _write_rows(out, ["branch", "m", "T", "nu", "lambda_residual"], rows)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    try:
        mdl = _resolve_model(args.model)
    except model_mod.ModelError as exc:
        return _fail(2, "validation", str(exc))
    report = model_mod.validate(mdl)
    _emit({"status": report.status.value,
           "issues": [str(i) for i in report.issues]})
    return 0 if report.ok else 2


def _cmd_catalog(args) -> int:
    _emit(list(model_mod.catalog()))
    return 0


def _cmd_lambda(args) -> int:
    mdl = _resolve_model(args.model)
    params = model_mod.ModelParameters(m=args.m, T=args.T)
    res = dynamics.growth_rate(mdl, params)
    out = {"lambda": res.lam, "mu": res.mu, "pi": list(res.pi),
           "method": "ExponentialProduct", "cross_checks": {}}
    if args.check_integral:
        out["cross_checks"]["integral"] = abs(
            res.lam - dynamics.growth_rate_integral(mdl, params))
    if args.check_h:
        out["cross_checks"]["h_formula"] = abs(
            res.lam - dynamics.growth_rate_h_formula(mdl, params))
    _emit(out)
    return 0


def _cmd_limits(args) -> int:
    mdl = _resolve_model(args.model)
    panel = asymptotics.limit_panel(mdl, m=args.m)
    out = {
        "chi": panel.chi,
        "corners": {"lambda_00": panel.lambda_00,
                    "lambda_inf0": panel.lambda_inf0,
                    "lambda_0inf": panel.chi,
                    "lambda_infinf": panel.lambda_infinf},
        "lambda_0T": panel.lambda_0T,
        "lambda_infT": panel.lambda_infinf,
        "m_star": panel.m_star,
        "infimum": panel.infimum,
    }
    if args.m is not None:
        out["lambda_m_T0"] = panel.lambda_m_T0
        out["lambda_m_Tinf"] = panel.lambda_m_Tinf
    _emit(out)
    return 0


def _cmd_sweep(args) -> int:
    mdl = _resolve_model(args.model)
    m_lo, m_hi, m_n = _parse_range(args.m_range, "m-range")
    T_lo, T_hi, T_n = _parse_range(args.T_range, "T-range")
    grid = explorer.sweep(mdl, (m_lo, m_hi), (T_lo, T_hi), (m_n, T_n))
    out, close = _open_out(args.out)
    try:
        _write_sweep_csv(grid, out)
    finally:
        if close:
            out.close()
    return 0


def _cmd_critical(args) -> int:
    mdl = _resolve_model(args.model)
    m_lo, m_hi, m_n = _parse_range(args.m_range, "m-range")
    T_lo, T_hi, T_n = _parse_range(args.T_range, "T-range")
    curve = explorer.critical_curve(mdl, (m_lo, m_hi), (T_lo, T_hi),
                                    (m_n, T_n), tol=args.tol)
    out, close = _open_out(args.out)
    try:
        _write_curve_csv(curve, out)
    finally:
        if close:
            out.close()
    return 0


def _cmd_classify(args) -> int:
    mdl = _resolve_model(args.model)
    verdict = explorer.classify_dig(mdl)
    _emit({"all_sinks": verdict.all_sinks, "chi": verdict.chi,
           "dig_possible": verdict.dig_possible, "case": verdict.case,
           "m_star": verdict.m_star, "empirical": verdict.empirical})
    return 0


def _cmd_simulate(args) -> int:
    env = stochastic.load(args.env)
    est = stochastic.simulate_lyapunov(env, m=args.m, T=args.T,
                                       horizon=args.horizon, seed=args.seed)
    _emit({"lambda_hat": est.lambda_hat, "stderr": est.stderr,
           "horizon": est.horizon, "renormalizations": est.renormalizations,
           "seed": est.seed})
    return 0


# ---------------------------------------------------------------------------
# reproduce: the data sets behind the figures
#
# A producer is called as produce(outdir, resolution).  It accepts and
# ignores a third positional argument, which bench/workloads.py passes.
# ---------------------------------------------------------------------------

def _repro_sweep(name, model_ref, m_range=(1e-2, 1e2), T_range=(1e-2, 1e3)):
    def run(outdir, res, _=None):
        mdl = _resolve_model(model_ref)
        grid = explorer.sweep(mdl, m_range, T_range, res)
        with open(os.path.join(outdir, name + "_sweep.csv"), "w",
                  newline="") as fh:
            _write_sweep_csv(grid, fh)
    return run


def _repro_curve(name, model_ref, m_range=(1e-2, 1e2), T_range=(1e-2, 1e3)):
    def run(outdir, res, _=None):
        mdl = _resolve_model(model_ref)
        try:
            curve = explorer.critical_curve(mdl, m_range, T_range, res)
        except explorer.NoZeroCrossing:
            curve = explorer.CriticalCurve(branches=[], residuals=[],
                                           tol=explorer.CURVE_TOL)
        with open(os.path.join(outdir, name + "_curve.csv"), "w",
                  newline="") as fh:
            _write_curve_csv(curve, fh)
    return run


def _repro_slices(name, model_ref, m_fixed, T_fixed):
    def run(outdir, res, _=None):
        mdl = _resolve_model(model_ref)
        ms = np.geomspace(1e-2, 1e2, 200)
        Ts = np.geomspace(1e-2, 1e3, 200)
        by_T, st_T = dynamics.growth_rates(mdl, ms[None, :],
                                           np.array(T_fixed, float)[:, None])
        by_m, st_m = dynamics.growth_rates(mdl, np.array(m_fixed, float)[:, None],
                                           Ts[None, :])
        dynamics.raise_for_status(st_T)
        dynamics.raise_for_status(st_m)
        m_text = [_fmt(m) for m in ms.tolist()]
        T_text = [_fmt(T) for T in Ts.tolist()]
        rows = [("T", T, m, T, _fmt(lam))
                for T, row in zip(map(_fmt, T_fixed), by_T.tolist())
                for m, lam in zip(m_text, row)]
        rows += [("m", m, m, T, _fmt(lam))
                 for m, row in zip(map(_fmt, m_fixed), by_m.tolist())
                 for T, lam in zip(T_text, row)]
        with open(os.path.join(outdir, name + "_slices.csv"), "w",
                  newline="") as fh:
            _write_rows(fh, ["slice", "fixed_value", "m", "T", "lambda"], rows)
    return run


def _repro_slow_curve(name, model_ref, m, T):
    def run(outdir, res, _=None):
        mdl = _resolve_model(model_ref)
        params = model_mod.ModelParameters(m=m, T=T)
        traj = dynamics.periodic_simplex_solution(mdl, params)
        breaks, _, mats = dynamics.merged_segments(mdl, m)
        # segment k's grid starts at the time breaks[k] * T exactly
        seg = np.searchsorted(breaks * T, traj.times, side="right") - 1
        slow = spectral.perron_vector(mats)[seg]
        rows = [[_fmt(t / T)] + [_fmt(x) for x in theta + v]
                for t, theta, v in zip(traj.times.tolist(),
                                       traj.states.tolist(), slow.tolist())]
        n = mdl.n
        with open(os.path.join(outdir, name + "_slow_curve.csv"), "w",
                  newline="") as fh:
            _write_rows(fh, ["tau"] + [f"theta_{i+1}" for i in range(n)]
                        + [f"v_{i+1}" for i in range(n)], rows)
    return run


_FAINSHIL = "fainshil(0.1,0.1)"

_REPRODUCE = {
    "fig2": [_repro_sweep("fig2", "ab1"), _repro_curve("fig2", "ab1")],
    "fig3": [_repro_sweep("fig3", "ab2s"), _repro_curve("fig3", "ab2s")],
    "fig4": [_repro_sweep("fig4", "ab_mstar_inf"),
             _repro_curve("fig4", "ab_mstar_inf")],
    "fig5": [_repro_curve("fig5a", "ab1"), _repro_curve("fig5b", "ab2s"),
             _repro_curve("fig5c", "ab_mstar_inf")],
    "fig6": [_repro_sweep("fig6", "three_patch_circular"),
             _repro_curve("fig6", "three_patch_circular")],
    "fig7": [_repro_sweep("fig7", "abc_two_patch")],
    "fig8": [_repro_slices("fig8", "abc_two_patch",
                           m_fixed=[0.5, 1.0, 1.764, 3.0],
                           T_fixed=[1.0, 10.0, 100.0])],
    "fig9": [_repro_curve("fig9", "abc_two_patch")],
    "fig10": [_repro_sweep("fig10", _FAINSHIL)],
    "fig11": [_repro_curve("fig11", _FAINSHIL)],
    "figS1": [_repro_sweep("figS1", "three_patch_circular")],
    "figS2": [_repro_sweep("figS2", "ab2s"), _repro_curve("figS2", "ab2s")],
    "figS3": [_repro_sweep("figS3", "ab_mstar_inf"),
              _repro_curve("figS3", "ab_mstar_inf")],
    "figS4": [_repro_slices("figS4", "abc_two_patch",
                            m_fixed=[1.0, 1.764], T_fixed=[10.0, 100.0])],
    "figS5": [_repro_sweep("figS5", _FAINSHIL)],
    "figS6": [_repro_slow_curve("figS6", "three_patch_circular", m=1.0, T=20.0)],
}


def _cmd_reproduce(args) -> int:
    if args.figure not in _REPRODUCE:
        raise UsageError(f"unknown figure id {args.figure!r}; choose from "
                         + ", ".join(sorted(_REPRODUCE)))
    os.makedirs(args.out_dir, exist_ok=True)
    for producer in _REPRODUCE[args.figure]:
        producer(args.out_dir, args.resolution)
    _emit({"figure": args.figure, "out_dir": args.out_dir})
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dig",
        description="Growth rates of periodically forced patch populations")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a model")
    sp.add_argument("model")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("catalog", help="list built-in models")
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("lambda", help="growth rate at one (m, T)")
    sp.add_argument("model")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--check-integral", action="store_true")
    sp.add_argument("--check-h", action="store_true")
    sp.set_defaults(func=_cmd_lambda)

    sp = sub.add_parser("limits", help="limit panel and corner values")
    sp.add_argument("model")
    sp.add_argument("--m", type=float, default=None)
    sp.set_defaults(func=_cmd_limits)

    sp = sub.add_parser("sweep", help="Lambda over an (m, T) grid, CSV")
    sp.add_argument("model")
    sp.add_argument("--m-range", default="1e-2:1e2:128")
    sp.add_argument("--T-range", default="1e-2:1e3:128")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("critical", help="zero-contour of Lambda, CSV")
    sp.add_argument("model")
    sp.add_argument("--m-range", default="1e-2:1e2:128")
    sp.add_argument("--T-range", default="1e-2:1e3:128")
    sp.add_argument("--tol", type=float, default=explorer.CURVE_TOL)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_critical)

    sp = sub.add_parser("classify", help="dispersal-induced-growth verdict")
    sp.add_argument("model")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("simulate", help="Lyapunov exponent of a Markov env")
    sp.add_argument("env")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--seed", type=int, default=stochastic.DEFAULT_SEED)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("reproduce", help="emit the data behind a figure")
    sp.add_argument("figure")
    sp.add_argument("--out-dir", default="reproduce-out")
    sp.add_argument("--resolution", type=int, default=64)
    sp.set_defaults(func=_cmd_reproduce)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, model_mod.ModelError) as exc:
        return _fail(2, "usage", str(exc))
    except (ValueError,) as exc:
        return _fail(2, "usage", str(exc))
    except stochastic.InvalidEnvironment as exc:
        return _fail(2, "validation", str(exc))
    except (dynamics.DynamicsError, asymptotics.AsymptoticsError,
            explorer.ExplorerError, stochastic.StochasticError) as exc:
        return _fail(1, "numerical", str(exc))
    except OSError as exc:
        return _fail(1, "io", str(exc))


def main() -> None:
    sys.exit(run())
