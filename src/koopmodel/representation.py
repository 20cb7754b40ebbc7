"""Reduced-representation discovery from the fitted operator's structure.

Combines two sources of closure: rows of the fitted matrix that are
numerically reproduced by the data (linear closure), and declared
functional dependence between observables (an observable like sin of a
coordinate never needs its own dynamics — it can be recomputed from its
generators at every step).  A subset of observables that is closed under
both gives a finite-dimensional representation of the dynamics; it is
linear only when the data actually obeys the restricted linear update,
and faithful when its generators reach every raw feature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, generator_features
from .edmd import DEFAULT_CLOSURE_TOL, KoopmanMatrix, _relative_misfit
from .errors import InputError, ShapeMismatchError

DEFAULT_ZERO_THRESHOLD = 0.05

#: Most classes of closed subsets a search reports.
_CLASS_CAP = 512


@dataclass(frozen=True)
class ZeroPattern:
    """Structural skeleton of a fitted matrix.

    ``mask[i, j]`` is true when ``|A[i, j]| > threshold``; ``closed_rows``
    holds the indices whose per-row fit residual stayed below the closure
    tolerance, i.e. rows whose dynamics the linear fit actually captured.
    """

    mask: np.ndarray
    threshold: float
    closed_rows: frozenset

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ShapeMismatchError(
                f"mask must be square, got shape {mask.shape}"
            )
        if self.threshold <= 0:
            raise InputError(f"threshold must be > 0, got {self.threshold}")
        bad = [i for i in self.closed_rows
               if not 0 <= int(i) < mask.shape[0]]
        if bad:
            raise InputError(f"closed row indices out of range: {bad}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "closed_rows",
                           frozenset(int(i) for i in self.closed_rows))

    @property
    def dim(self) -> int:
        return self.mask.shape[0]


def zero_pattern(fitted: KoopmanMatrix,
                 threshold: float = DEFAULT_ZERO_THRESHOLD,
                 closure_tol: float = DEFAULT_CLOSURE_TOL) -> ZeroPattern:
    """Threshold a fitted matrix into a boolean mask plus the rows whose
    fit residual is below ``closure_tol``."""
    residuals = np.asarray(fitted.row_residuals, dtype=float)
    if residuals.shape != (fitted.dim,):
        raise ShapeMismatchError(
            f"expected {fitted.dim} per-row residuals, got shape "
            f"{residuals.shape}"
        )
    mask = np.abs(fitted.matrix) > threshold
    closed = frozenset(int(i) for i in np.flatnonzero(residuals < closure_tol))
    return ZeroPattern(mask=mask, threshold=threshold, closed_rows=closed)


def _closed_row_supports(pattern: ZeroPattern,
                         dictionary: Dictionary) -> list:
    """Bitmask of each closed row's support; None for the other rows."""
    if pattern.dim != len(dictionary):
        raise ShapeMismatchError(f"pattern is {pattern.dim}-dimensional but "
                                 f"the dictionary has {len(dictionary)} "
                                 f"observables")
    return [sum(1 << int(j) for j in np.flatnonzero(pattern.mask[i]))
            if i in pattern.closed_rows else None
            for i in range(pattern.dim)]


def _bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _first_break(dictionary: Dictionary, rows: list, members: int,
                 closure: int):
    """The first member with neither a closed row supported inside the
    members' closure ``closure`` nor a place in the closure of the other
    members. A non-empty set without one is closed; asking the *other*
    members to generate it keeps the dependence non-circular."""
    regenerated = dictionary.regenerated(members, closure)
    for i in _bits(members & ~regenerated):
        if rows[i] is None or rows[i] & ~closure:
            return i
    return None


def _repairs(dictionary: Dictionary, rows: list, state: int, i: int) -> list:
    """Closures of ``state`` plus what fixes its failing member i: the
    support of i's closed row, or i's observable dependencies and a
    coordinate reading each feature i needs (i itself adds nothing).
    Empty when nothing can fix i."""
    options = [rows[i]] if rows[i] is not None else []
    obs, feats = dictionary.needs[i]
    readers = [[1 << c for c, r in enumerate(dictionary.reads) if r == 1 << f]
               for f in _bits(feats)]
    options += [obs | sum(pick) for pick in itertools.product(*readers)]
    return [dictionary.closure_mask(state | g) for g in options]


def _smallest_generators(dictionary: Dictionary, rows: list, cls: int):
    """Minimal-cardinality closed sets with closure ``cls`` (the last try,
    ``cls`` itself, is one); each holds what the others cannot regenerate."""
    needed = cls & ~dictionary.regenerated(cls, cls)
    optional = _bits(cls & ~needed)
    for size in range(len(optional) + 1):
        found = [s for extra in itertools.combinations(optional, size)
                 if (s := needed | sum(1 << i for i in extra))
                 and dictionary.closure_mask(s) == cls
                 and _first_break(dictionary, rows, s, cls) is None]
        if found:
            return found


@dataclass(frozen=True)
class SubsetEnumeration:
    """Closed subsets found by the search, as sorted id tuples."""

    subsets: tuple
    truncated: bool


def closed_subsets(pattern: ZeroPattern,
                   dictionary: Dictionary) -> SubsetEnumeration:
    """Every class of closed subsets, by its smallest closed generators.

    A class is a closed set equal to its own dependence closure.  Repairing
    sets from each single observable (:func:`_repairs`) reaches a closed
    set inside each class that holds it, so every class is the closure of
    a union of the closed sets reached; those are joined in one at a time.
    ``truncated`` means more than ``_CLASS_CAP`` classes exist.
    """
    rows = _closed_row_supports(pattern, dictionary)
    seen, classes = set(), []
    pending = [dictionary.closure_mask(1 << i) for i in range(len(rows))]
    while pending:
        state = pending.pop()
        if state not in seen:
            seen.add(state)
            i = _first_break(dictionary, rows, state, state)  # a closure
            if i is None:
                classes.append(state)
            else:
                pending += _repairs(dictionary, rows, state, i)
    classes.sort()
    atoms, known = tuple(classes), set(classes)
    for cls in classes:  # grows while it is walked
        if len(classes) > _CLASS_CAP:
            break
        for atom in atoms:
            union = dictionary.closure_mask(cls | atom)
            if union not in known:
                known.add(union)
                classes.append(union)
    generators = sorted((s for cls in classes[:_CLASS_CAP]
                         for s in _smallest_generators(dictionary, rows, cls)),
                        key=lambda s: (s.bit_count(), _bits(s)))
    return SubsetEnumeration(
        subsets=tuple(dictionary.ids_of(s) for s in generators),
        truncated=len(classes) > _CLASS_CAP)


@dataclass(frozen=True)
class RepresentationSubset:
    """One closed subset with its classification."""

    observable_ids: tuple
    generator_features: tuple
    dimension: int
    kind: str
    faithful: bool

    def as_dict(self) -> dict:
        return {
            "observables": list(self.observable_ids),
            "generator_features": list(self.generator_features),
            "dimension": self.dimension,
            "kind": self.kind,
            "faithful": self.faithful,
        }


@dataclass(frozen=True)
class RepresentationReport:
    """All discovered representations plus a rendered summary."""

    subsets: tuple
    narrative: str
    truncated: bool

    def as_dict(self) -> dict:
        return {
            "subsets": [s.as_dict() for s in self.subsets],
            "narrative": self.narrative,
            "truncated": self.truncated,
        }


def _subset_is_linear(fitted: KoopmanMatrix, pattern: ZeroPattern,
                      dictionary: Dictionary, subset,
                      closure_tol: float) -> bool:
    """Whether the members' rows are closed and the sub-matrix on the
    subset reproduces their one-step-ahead data: the relative misfit of
    ``shifted[S] - A[S, S] @ current[S]``, read from the fit's factor as
    the columns of ``Rs[:, S] - Rc[:, S] @ A[S, S]^T``."""
    indices = [dictionary.index_of(oid) for oid in subset]
    if any(i not in pattern.closed_rows for i in indices):
        return False
    sub = fitted.matrix[np.ix_(indices, indices)]
    rc = fitted.factor[:, indices]
    rs = fitted.factor[:, [fitted.dim + i for i in indices]]
    misfit = rs - rc @ sub.T
    return bool(np.all(_relative_misfit(misfit, rs) < closure_tol))


def _narrate(subsets, truncated: bool, n_features: int) -> str:
    if not subsets:
        lines = ["No closed representations found."]
    else:
        lines = [f"Found {len(subsets)} closed "
                 f"representation{'s' if len(subsets) != 1 else ''}:"]
        for s in subsets:
            scope = ("faithful" if s.faithful
                     else f"reduced, {len(s.generator_features)} of "
                          f"{n_features} features")
            lines.append(
                f"- {s.dimension}-dimensional {s.kind} representation "
                f"generated by {', '.join(s.observable_ids)} ({scope})"
            )
    if truncated:
        lines.append(f"More than {_CLASS_CAP} classes of closed subsets "
                     f"exist; only {_CLASS_CAP} are reported.")
    return "\n".join(lines)


def analyze_representation(fitted: KoopmanMatrix, dictionary: Dictionary,
                           zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                           closure_tol: float = DEFAULT_CLOSURE_TOL
                           ) -> RepresentationReport:
    """Classify the smallest generators of every class of closed subsets
    (:func:`closed_subsets`, exact up to its class cap) as linear or
    nonlinear.  A subset is linear when all member rows are numerically
    closed *and* the sub-matrix restricted to the subset reproduces the
    members' one-step-ahead data within the closure tolerance, as read
    from the fit's triangular factor.  Subsets whose closure leans on
    declared functional dependence are nonlinear.  Faithful means the
    generators involve every raw feature.
    """
    if fitted.factor is None:
        raise ShapeMismatchError("representation analysis needs the "
                                 "factor of a matrix fitted from data")
    pattern = zero_pattern(fitted, zero_threshold, closure_tol)
    enumeration = closed_subsets(pattern, dictionary)
    all_features = frozenset(range(dictionary.n_features))
    entries = []
    for subset in enumeration.subsets:
        feats = generator_features(dictionary, set(subset))
        linear = _subset_is_linear(fitted, pattern, dictionary, subset,
                                   closure_tol)
        entries.append(RepresentationSubset(
            observable_ids=subset,
            generator_features=tuple(sorted(feats)),
            dimension=len(subset),
            kind="linear" if linear else "nonlinear",
            faithful=feats == all_features,
        ))
    narrative = _narrate(entries, enumeration.truncated,
                         dictionary.n_features)
    return RepresentationReport(subsets=tuple(entries), narrative=narrative,
                                truncated=enumeration.truncated)
