"""Periodic patch models: growth/migration schedules, validation, catalog, I/O.

A patch model couples n habitat patches through a 1-periodic, piecewise-constant
diagonal growth schedule R(tau) and a Metzler migration schedule L(tau) whose
columns sum to zero.  Each schedule is parsed input, a
:class:`PeriodicMatrixFunction` with one matrix per segment, read by JSON
I/O, model equality and the sign and column-sum checks of ``validate``.
The numerics read a model only through ``PatchModel.segments``: the common
refinement of the two schedules as one :class:`Segments`, entry-major
(n, n, K) as ``spectral`` takes its stacks, built once per model, with each
segment's reachability closure cached beside it as ``segment_reach``.
Period averages are ``R @ widths`` and ``L @ widths``.  The growth-rate
kernel multiplies the same type, with each run of migration-free segments
fused into one.

The module also ships a catalog of built-in models (two- and three-patch
examples with exactly rational entries) and a JSON file format with round-trip
load/save.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

COLUMN_SUM_TOL = 1e-12

SCHEMA_VERSION = 1


class ModelError(Exception):
    """Base class for model construction/validation/I-O errors."""


class SchemaError(ModelError):
    pass


class SchemaVersionMismatch(SchemaError):
    pass


class ParseError(ModelError):
    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class UnknownModel(ModelError):
    pass


class ValidationStatus(Enum):
    IRREDUCIBLE_EVERYWHERE = "IrreducibleEverywhere"
    POSITIVE_MONODROMY_ONLY = "PositiveMonodromyOnly"
    NO_POSITIVE_MONODROMY = "NoPositiveMonodromy"
    INVALID = "Invalid"


@dataclass(frozen=True)
class ValidationIssue:
    """One violated constraint, named with its location and residual."""

    kind: str  # "ColumnSumViolation" | "NegativeOffDiagonal"
    segment: int
    i: int
    j: int | None = None
    residual: float | None = None

    def __str__(self) -> str:
        if self.kind == "ColumnSumViolation":
            return (f"ColumnSumViolation(segment={self.segment}, "
                    f"column={self.i}, residual={self.residual:.3e})")
        return f"NegativeOffDiagonal(segment={self.segment}, i={self.i}, j={self.j})"


@dataclass(frozen=True)
class ValidationReport:
    status: ValidationStatus
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is not ValidationStatus.INVALID


def _as_breaks(breaks: Sequence[float]) -> tuple[float, ...]:
    b = tuple(float(Fraction(x)) if isinstance(x, str) else float(x)
              for x in breaks)
    if not b or b[0] != 0.0:
        raise SchemaError("first breakpoint must be 0")
    if not all(0.0 <= x < 1.0 for x in b):  # NaN too
        raise SchemaError("breakpoints must lie in [0, 1)")
    if any(b[k + 1] <= b[k] for k in range(len(b) - 1)):
        raise SchemaError("breakpoints must be strictly increasing")
    return b


@dataclass(frozen=True)
class PeriodicMatrixFunction:
    """1-periodic piecewise-constant matrix-valued function, as parsed.

    ``matrices[k]`` holds on ``[breaks[k], breaks[k+1])`` (right-continuous,
    last segment wraps to 1).  The numerics read ``PatchModel.segments``.
    """

    n: int
    breaks: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]

    @staticmethod
    def constant(M) -> "PeriodicMatrixFunction":
        M = np.asarray(M, dtype=float)
        return PeriodicMatrixFunction.from_segments([0.0], [M])

    @staticmethod
    def from_segments(breaks: Sequence[float], matrices) -> "PeriodicMatrixFunction":
        b = _as_breaks(breaks)
        mats = tuple(np.asarray(M, dtype=float).copy() for M in matrices)
        if len(mats) != len(b):
            raise SchemaError("need one matrix per breakpoint")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise SchemaError("all segment matrices must be square, same size")
            if not np.isfinite(M).all():
                raise SchemaError("matrix entries must be finite")
            M.setflags(write=False)
        return PeriodicMatrixFunction(n=n, breaks=b, matrices=mats)

    def value(self, tau: float) -> np.ndarray:
        return self.matrices[np.searchsorted(self.breaks, tau % 1.0,
                                             side="right") - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicMatrixFunction):
            return NotImplemented
        if (self.n, self.breaks) != (other.n, other.breaks):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices))


@dataclass(frozen=True)
class Segments:
    """A model's segments: on ``[breaks[k], breaks[k] + widths[k])``, a
    fraction ``widths[k]`` of the period, the growth matrix is
    ``R[:, :, k]`` and the migration matrix ``L[:, :, k]``.  ``R`` and
    ``L`` are entry-major, (n, n, K): entry (i, j) of every segment is one
    contiguous array, as ``spectral`` takes its stacks.  Read-only."""

    breaks: np.ndarray
    widths: np.ndarray
    R: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for a in (self.breaks, self.widths, self.R, self.L):
            a.setflags(write=False)


def _fuse(seg: Segments) -> Segments:
    """``seg`` with each run of consecutive migration-free segments fused
    into one segment of the run's mean growth, a run that ends the period
    joined to the one that starts it.

    Their growth matrices are diagonal, so they commute and
    e^{T (w1 R1 + w2 R2)} = e^{T w1 R1} e^{T w2 R2}.  Apart, a patch that
    one of them favours and the next disfavours underflows to 0 in each
    rescaled factor, and the product with it.  Joining a run across the
    period end rotates the segments to start at the run's first break phi,
    so their product is Phi(T) from phase phi: a similar matrix with the
    same root.
    """
    free = ~seg.L.any(axis=(0, 1))
    inner = free[1:] & free[:-1]  # free segment k + 1 follows a free one
    wraps = bool(free[0] and free[-1])
    if not (wraps or inner.any()):
        return seg
    # a wrapping run goes first: it starts after the last segment that
    # migrates.  Some segment does, since a model without migration has no
    # positive monodromy and never reaches the kernel
    r = np.flatnonzero(~free)[-1] + 1 if wraps else 0
    joins = np.concatenate(([wraps], inner))
    breaks, widths, joins, R, L = (np.roll(a, -r, axis=-1) for a in (
        seg.breaks, seg.widths, joins, seg.R, seg.L))
    starts = np.flatnonzero(~joins)
    R = np.add.reduceat(widths * R, starts, axis=2)
    widths = np.add.reduceat(widths, starts)
    R /= widths
    return Segments(breaks=breaks[starts], widths=widths, R=R,
                    L=np.take(L, starts, axis=2))


@dataclass(frozen=True)
class ModelParameters:
    """Migration strength m >= 0 and period T > 0."""

    m: float
    T: float

    def __post_init__(self):
        if not (self.m >= 0.0):
            raise ValueError(f"m must be >= 0, got {self.m}")
        if not (self.T > 0.0):
            raise ValueError(f"T must be > 0, got {self.T}")


@dataclass(frozen=True)
class PatchModel:
    """n patches with periodic growth (diagonal) and migration schedules."""

    n: int
    growth: PeriodicMatrixFunction
    migration: PeriodicMatrixFunction
    name: str | None = None
    validation: ValidationStatus = field(init=False)  # what validate finds

    def __post_init__(self):
        if self.n < 2:
            raise SchemaError("n >= 2 required")
        if self.growth.n != self.n or self.migration.n != self.n:
            raise SchemaError("schedule dimensions disagree with n")
        object.__setattr__(self, "validation", validate(self).status)

    @cached_property
    def segments(self) -> Segments:
        """The merged segments of growth and migration, built once."""
        breaks = sorted(set(self.growth.breaks) | set(self.migration.breaks))
        return Segments(
            breaks=np.array(breaks),
            widths=np.diff(np.array(breaks + [1.0])),
            R=np.stack([self.growth.value(tau) for tau in breaks], axis=-1),
            L=np.stack([self.migration.value(tau) for tau in breaks], axis=-1))

    @cached_property
    def segment_reach(self) -> np.ndarray:
        """(K, n, n) ``spectral.reachability`` closure of each merged
        segment's migration, built once: for m > 0 its classes are those of
        R_k + m L_k."""
        from .spectral import reachability  # local import avoids a cycle

        L = self.segments.L
        reach = np.array([reachability(L[:, :, k])
                          for k in range(L.shape[2])])
        reach.setflags(write=False)
        return reach

    @cached_property
    def kernel_segments(self) -> Segments:
        """The merged segments with migration-free runs fused, a run that
        wraps the period end included, built once: what the growth-rate
        kernel multiplies.  Their first break is phase 0 unless such a run
        wraps."""
        return _fuse(self.segments)

    def rates(self, tau: float) -> np.ndarray:
        """Growth-rate vector r(tau)."""
        return np.diag(self.growth.value(tau))

    def mean_rates(self) -> np.ndarray:
        """Per-patch average growth rates."""
        return np.diag(self.segments.R @ self.segments.widths)

    def all_sinks(self) -> bool:
        return bool(np.all(self.mean_rates() < 0.0))


def validate(model: PatchModel) -> ValidationReport:
    """Check migration sign/column-sum constraints and classify the model.

    For m, t > 0 the zero pattern of e^{t(R_k + m L_k)} is the reachability
    closure of L_k (``PatchModel.segment_reach``), so the monodromy's
    pattern at every m, T > 0 is the Boolean product of the closures in
    segment order.  IrreducibleEverywhere: every closure is full.  Else
    PositiveMonodromyOnly if the product is full (the growth rate exists),
    NoPositiveMonodromy if not.  Entries at or below ``spectral.EDGE_TOL``
    are structural zeros.  Each ValidationIssue names a segment of the
    migration schedule.
    """
    issues: list[ValidationIssue] = []
    for k, L in enumerate(model.migration.matrices):
        off = L - np.diag(np.diag(L))
        bad = np.argwhere(off < 0.0)
        for i, j in bad:
            issues.append(ValidationIssue("NegativeOffDiagonal", k, int(i), int(j)))
        cols = L.sum(axis=0)
        for j, s in enumerate(cols):
            if abs(s) > COLUMN_SUM_TOL:
                issues.append(ValidationIssue("ColumnSumViolation", k, int(j),
                                              residual=float(s)))
    if issues:
        return ValidationReport(ValidationStatus.INVALID, tuple(issues))
    if model.segment_reach.all():
        return ValidationReport(ValidationStatus.IRREDUCIBLE_EVERYWHERE)
    pattern = np.eye(model.n, dtype=bool)
    for reach in model.segment_reach:
        pattern = reach @ pattern
    if pattern.all():
        return ValidationReport(ValidationStatus.POSITIVE_MONODROMY_ONLY)
    return ValidationReport(ValidationStatus.NO_POSITIVE_MONODROMY)


def validated(model: PatchModel) -> PatchModel:
    """Return the model, or raise SchemaError if it is invalid."""
    if model.validation is ValidationStatus.INVALID:
        issues = validate(model).issues
        raise SchemaError("invalid model: " + "; ".join(str(i) for i in issues))
    return model


# ---------------------------------------------------------------------------
# Built-in catalog.  Entries are stored as exact rational strings and
# converted to float once, so segment averages and the table values they feed
# are exact in floating point.
# ---------------------------------------------------------------------------

def _F(x) -> float:
    return float(Fraction(x))


def _diag_segments(breaks, rates_per_segment):
    return PeriodicMatrixFunction.from_segments(
        breaks, [np.diag([_F(r) for r in rs]) for rs in rates_per_segment])


def _mig_from_offdiag(pairs):
    """Build a zero-column-sum migration matrix from {(i, j): l_ij} flows."""
    n = max(max(i, j) for i, j in pairs) + 1
    L = np.zeros((n, n))
    for (i, j), v in pairs.items():
        L[i, j] = _F(v)
    L -= np.diag(L.sum(axis=0))
    return L


# the half-period growth pattern shared by the two-patch examples
_R_HALF = (["0", "1/2"], [["1/2", "-3/2"], ["-1", "1/2"]])


def _two_patch_half(mig_segments, name):
    breaks, rates = _R_HALF
    growth = _diag_segments(breaks, rates)
    if len(mig_segments) == 1:
        migration = PeriodicMatrixFunction.constant(mig_segments[0])
    else:
        migration = PeriodicMatrixFunction.from_segments(breaks, mig_segments)
    return validated(PatchModel(2, growth, migration, name=name))


def _builtin_pm1(eps: float = 0.5) -> PatchModel:
    if not (0.0 < eps < 1.0):
        raise UnknownModel(f"pm1 requires 0 < eps < 1, got {eps}")
    a, b = 1.0 - eps, -1.0 - eps
    growth = PeriodicMatrixFunction.from_segments(
        ["0", "1/2"], [np.diag([a, b]), np.diag([b, a])])
    migration = PeriodicMatrixFunction.constant([[-1.0, 1.0], [1.0, -1.0]])
    return validated(PatchModel(2, growth, migration, name=f"pm1({eps})"))


def _builtin_ab1() -> PatchModel:
    L = _mig_from_offdiag({(0, 1): "2", (1, 0): "1"})
    return _two_patch_half([L], "ab1")


def _builtin_ab2s() -> PatchModel:
    L1 = _mig_from_offdiag({(0, 1): "1", (1, 0): "2"})
    L2 = _mig_from_offdiag({(0, 1): "2", (1, 0): "1"})
    return _two_patch_half([L1, L2], "ab2s")


def _builtin_ab_mstar_inf() -> PatchModel:
    L1 = _mig_from_offdiag({(0, 1): "5", (1, 0): "1"})
    L2 = _mig_from_offdiag({(0, 1): "1", (1, 0): "5"})
    return _two_patch_half([L1, L2], "ab_mstar_inf")


def _builtin_three_patch_circular() -> PatchModel:
    growth = _diag_segments(
        ["0", "1/2"],
        [["3/20", "-9/20", "-1/5"], ["-9/20", "3/20", "-1/5"]])
    L = _mig_from_offdiag({(1, 0): "1", (2, 1): "1", (0, 2): "1"})
    migration = PeriodicMatrixFunction.constant(L)
    return validated(PatchModel(3, growth, migration, name="three_patch_circular"))


def _builtin_abc_two_patch() -> PatchModel:
    breaks = ["0", "1/3", "2/3"]
    growth = _diag_segments(
        breaks, [["0", "-1/10"], ["-4/5", "3/2"], ["1/2", "-2"]])
    migs = [
        _mig_from_offdiag({(0, 1): "1/10", (1, 0): "1"}),
        _mig_from_offdiag({(0, 1): "2", (1, 0): "1/5"}),
        _mig_from_offdiag({(0, 1): "1/100", (1, 0): "1/100"}),
    ]
    migration = PeriodicMatrixFunction.from_segments(breaks, migs)
    return validated(PatchModel(2, growth, migration, name="abc_two_patch"))


def _builtin_fainshil(eps: float = 0.1, delta: float = 0.1) -> PatchModel:
    """Three-patch switched system with two antiphase circular flow patterns.

    ``eps``/``delta`` are the weak back-flow strengths; at (0, 0) each
    half-period migration is one-way and the monodromy matrix keeps
    structural zeros, while positive values make it irreducible everywhere.
    """
    growth = _diag_segments(["0", "1/2"], [["9", "-1", "-10"], ["-10", "0", "9"]])
    L1 = _mig_from_offdiag({(1, 0): "10", (2, 1): eps, (0, 2): eps})
    L2 = _mig_from_offdiag({(1, 0): delta, (2, 1): "10", (0, 2): "10"})
    migration = PeriodicMatrixFunction.from_segments(["0", "1/2"], [L1, L2])
    return validated(PatchModel(3, growth, migration,
                                name=f"fainshil({eps},{delta})"))


def _builtin_unidir_favorable() -> PatchModel:
    L1 = np.array([[0.0, 1.0], [0.0, -1.0]])
    L2 = np.array([[-1.0, 0.0], [1.0, 0.0]])
    return _two_patch_half([L1, L2], "unidir_favorable")


def _builtin_unidir_unfavorable() -> PatchModel:
    L1 = np.array([[-1.0, 0.0], [1.0, 0.0]])
    L2 = np.array([[0.0, 1.0], [0.0, -1.0]])
    return _two_patch_half([L1, L2], "unidir_unfavorable")


def _builtin_three_patch_reducible(a: float = 1.0, b: float = -1.0) -> PatchModel:
    """One favorable patch (rate ``a``) rotating through three positions;
    symmetric migration couples only the two current sink patches (rate ``b``),
    so the favorable patch is always isolated.
    """
    breaks = ["0", "1/3", "2/3"]
    growth = _diag_segments(breaks, [[a, b, b], [b, a, b], [b, b, a]])
    migs = [
        _mig_from_offdiag({(1, 2): "1", (2, 1): "1"}),
        _mig_from_offdiag({(0, 2): "1", (2, 0): "1"}),
        _mig_from_offdiag({(0, 1): "1", (1, 0): "1", (2, 2): "0"}),
    ]
    migration = PeriodicMatrixFunction.from_segments(breaks, migs)
    return validated(PatchModel(3, growth, migration,
                                name=f"three_patch_reducible({a},{b})"))


_CATALOG: dict[str, Callable[..., PatchModel]] = {
    "pm1": _builtin_pm1,
    "ab1": _builtin_ab1,
    "ab2s": _builtin_ab2s,
    "ab_mstar_inf": _builtin_ab_mstar_inf,
    "three_patch_circular": _builtin_three_patch_circular,
    "abc_two_patch": _builtin_abc_two_patch,
    "fainshil": _builtin_fainshil,
    "unidir_favorable": _builtin_unidir_favorable,
    "unidir_unfavorable": _builtin_unidir_unfavorable,
    "three_patch_reducible": _builtin_three_patch_reducible,
}


def catalog() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


# built catalog models by name and parameters, oldest first
_BUILT: dict[tuple[str, str, str], PatchModel] = {}
_BUILT_MAX = 256


def builtin(name: str, *args: float, **kwargs: float) -> PatchModel:
    """Look up a built-in model; accepts ``"name"`` or ``"name(a,b)"`` forms.

    A model is built once per process for each name and parameters: it is
    immutable (frozen dataclasses, read-only arrays), so every caller shares
    the instance, its validation and its cached segments.  Parameters are
    told apart by their repr, so ``builtin("fainshil", 0, 0)`` keeps its
    name ``fainshil(0,0)``.
    """
    name = name.strip()
    if "(" in name:
        if args or kwargs:
            raise UnknownModel("give parameters either inline or as arguments")
        base, _, rest = name.partition("(")
        rest = rest.rstrip()
        if not rest.endswith(")"):
            raise UnknownModel(f"malformed model name {name!r}")
        argstr = rest[:-1].strip()
        try:
            args = tuple(float(Fraction(s.strip())) for s in argstr.split(",")) \
                if argstr else ()
        except ValueError as exc:
            raise UnknownModel(f"bad parameters in {name!r}") from exc
        name = base.strip()
    if name not in _CATALOG:
        raise UnknownModel(f"unknown model {name!r}; see catalog()")
    key = (name, repr(args), repr(sorted(kwargs.items())))
    if key not in _BUILT:
        try:
            model = _CATALOG[name](*args, **kwargs)
        except TypeError as exc:
            raise UnknownModel(f"bad parameters for {name!r}: {exc}") from exc
        if len(_BUILT) >= _BUILT_MAX:
            del _BUILT[next(iter(_BUILT))]
        _BUILT[key] = model
    return _BUILT[key]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_dict(model: PatchModel) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "n": model.n,
        "growth": {
            "breaks": list(model.growth.breaks),
            "diagonals": [np.diag(M).tolist() for M in model.growth.matrices],
        },
        "migration": {
            "breaks": list(model.migration.breaks),
            "matrices": [M.tolist() for M in model.migration.matrices],
        },
    }


def from_dict(doc: dict) -> PatchModel:
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"expected version {SCHEMA_VERSION}, got {version}")
    for key in ("n", "growth", "migration"):
        if key not in doc:
            raise ParseError("missing field", field=key)
    n = doc["n"]
    if not isinstance(n, int) or n < 2:
        raise SchemaError("n >= 2 required")
    g, mg = doc["growth"], doc["migration"]
    try:
        growth = PeriodicMatrixFunction.from_segments(
            g["breaks"], [np.diag(d) for d in g["diagonals"]])
        migration = PeriodicMatrixFunction.from_segments(mg["breaks"], mg["matrices"])
    except KeyError as exc:
        raise ParseError("missing field", field=str(exc)) from exc
    for d in g["diagonals"]:
        if len(d) != n:
            raise ParseError("growth diagonal has wrong length", field="growth")
    return validated(PatchModel(n, growth, migration))


def save(model: PatchModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(model), fh, indent=2)
        fh.write("\n")


def load(path) -> PatchModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return from_dict(doc)
