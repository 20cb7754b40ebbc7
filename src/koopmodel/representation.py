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

from .dictionary import (
    Dictionary,
    LiftedPair,
    dependence_closure,
    generator_features,
)
from .edmd import KoopmanMatrix, _row_residuals
from .errors import InputError, ShapeMismatchError

DEFAULT_ZERO_THRESHOLD = 0.05
DEFAULT_CLOSURE_TOL = 1e-6

#: Hard cap on tracked subsets while closing the reported list under union.
_UNION_CAP = 512


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

    def support(self, row: int) -> frozenset:
        return frozenset(int(j) for j in np.flatnonzero(self.mask[row]))


def zero_pattern(fitted: KoopmanMatrix,
                 threshold: float = DEFAULT_ZERO_THRESHOLD,
                 closure_tol: float = DEFAULT_CLOSURE_TOL) -> ZeroPattern:
    """Threshold a fitted matrix into a boolean mask plus the rows whose
    fit residual is below ``closure_tol``."""
    if threshold <= 0:
        raise InputError(f"threshold must be > 0, got {threshold}")
    residuals = np.asarray(fitted.row_residuals, dtype=float)
    if residuals.shape != (fitted.dim,):
        raise ShapeMismatchError(
            f"expected {fitted.dim} per-row residuals, got shape "
            f"{residuals.shape}"
        )
    mask = np.abs(fitted.matrix) > threshold
    closed = frozenset(int(i) for i in np.flatnonzero(residuals < closure_tol))
    return ZeroPattern(mask=mask, threshold=threshold, closed_rows=closed)


def is_closed_subset(pattern: ZeroPattern, dictionary: Dictionary,
                     subset) -> bool:
    """Whether a set of observable ids is closed under the dynamics.

    Each member must either (a) have a numerically closed row whose mask
    support lies inside the dependence closure of the subset, or (b) be
    functionally generated by the *other* members — requiring the rest of
    the subset to generate it keeps the dependence non-circular.
    """
    ids = set(subset)
    if not ids:
        return False
    for oid in ids:
        dictionary.index_of(oid)
    if pattern.dim != len(dictionary.ids):
        raise ShapeMismatchError(
            f"pattern is {pattern.dim}-dimensional but the dictionary has "
            f"{len(dictionary.ids)} observables"
        )
    closure = dependence_closure(dictionary, ids)
    closure_indices = {dictionary.index_of(oid) for oid in closure}
    for oid in ids:
        i = dictionary.index_of(oid)
        if i in pattern.closed_rows and pattern.support(i) <= closure_indices:
            continue
        obs = dictionary.observables[i]
        rest = dependence_closure(dictionary, ids - {oid})
        rest_feats = {dictionary.observables[dictionary.index_of(r)]
                      .params["index"]
                      for r in rest
                      if dictionary.observables[dictionary.index_of(r)].kind
                      == "coordinate"}
        if obs.depends_on <= rest and obs.feature_depends <= rest_feats:
            continue
        return False
    return True


@dataclass(frozen=True)
class SubsetEnumeration:
    """Closed subsets found by bounded search, as sorted id tuples."""

    subsets: tuple
    truncated: bool


def closed_subsets(pattern: ZeroPattern, dictionary: Dictionary,
                   max_seed_size: int = 3,
                   full_enumeration: bool = False) -> SubsetEnumeration:
    """Enumerate closed observable subsets.

    Searches every seed combination up to ``max_seed_size`` observables
    (or all sizes with ``full_enumeration``), always including the full
    dictionary, then keeps one minimal-cardinality generator set per
    distinct dependence closure and closes the result under union.  The
    ``truncated`` flag records when the seed search was capped.
    """
    ids = dictionary.ids
    d = len(ids)
    if pattern.dim != d:
        raise ShapeMismatchError(
            f"pattern is {pattern.dim}-dimensional but the dictionary has "
            f"{d} observables"
        )
    limit = d if full_enumeration else min(max_seed_size, d)
    found = set()
    for size in range(1, limit + 1):
        for combo in itertools.combinations(ids, size):
            candidate = frozenset(combo)
            if is_closed_subset(pattern, dictionary, candidate):
                found.add(candidate)
    full = frozenset(ids)
    if is_closed_subset(pattern, dictionary, full):
        found.add(full)
    truncated = limit < d and not full_enumeration

    # One closure class may have several generator sets; keep the smallest.
    classes: dict = {}
    for subset in sorted(found, key=lambda s: sorted(s)):
        classes.setdefault(dependence_closure(dictionary, subset),
                           set()).add(subset)
    for key, group in classes.items():
        smallest = min(len(s) for s in group)
        classes[key] = {s for s in group if len(s) == smallest}

    # Unions of closed subsets are closed; surface the combined classes
    # too.  The class count only grows, so this terminates.
    grew = True
    while grew and len(classes) < _UNION_CAP:
        grew = False
        for k1, k2 in itertools.combinations(list(classes), 2):
            candidate = (min(classes[k1], key=sorted)
                         | min(classes[k2], key=sorted))
            key = dependence_closure(dictionary, candidate)
            if key in classes:
                continue
            if is_closed_subset(pattern, dictionary, candidate):
                classes[key] = {candidate}
                grew = True
    if len(classes) >= _UNION_CAP:
        truncated = True

    generators = [s for group in classes.values() for s in group]
    ordered = sorted((tuple(sorted(s, key=dictionary.index_of))
                      for s in generators),
                     key=lambda s: (len(s), [dictionary.index_of(i) for i in s]))
    return SubsetEnumeration(subsets=tuple(ordered), truncated=truncated)


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
                      lifted: LiftedPair | None,
                      closure_tol: float) -> bool:
    indices = [dictionary.index_of(oid) for oid in subset]
    if any(i not in pattern.closed_rows for i in indices):
        return False
    if lifted is None:
        # Without the lifted data we cannot test the restricted update
        # numerically; require every row's support to stay inside the
        # subset itself so the restriction is the full row.
        members = set(indices)
        return all(pattern.support(i) <= members for i in indices)
    sub = fitted.matrix[np.ix_(indices, indices)]
    shifted = lifted.shifted[indices, :]
    misfit = shifted - sub @ lifted.current[indices, :]
    return bool(np.all(_row_residuals(misfit, shifted) < closure_tol))


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
        lines.append("Subset search was capped; more closed sets may exist.")
    return "\n".join(lines)


def analyze_representation(fitted: KoopmanMatrix, dictionary: Dictionary,
                           zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
                           closure_tol: float = DEFAULT_CLOSURE_TOL,
                           lifted: LiftedPair | None = None,
                           max_seed_size: int = 3,
                           full_enumeration: bool = False) -> RepresentationReport:
    """Classify every discovered closed subset as linear or nonlinear.

    A subset is linear when all member rows are numerically closed *and*
    the sub-matrix restricted to the subset reproduces the members'
    one-step-ahead data within the closure tolerance (checked against
    ``lifted`` when given, structurally otherwise).  Subsets whose closure
    leans on declared functional dependence are nonlinear.  Faithful means
    the generators involve every raw feature.
    """
    pattern = zero_pattern(fitted, zero_threshold, closure_tol)
    enumeration = closed_subsets(pattern, dictionary, max_seed_size,
                                 full_enumeration)
    all_features = frozenset(range(dictionary.n_features))
    entries = []
    for subset in enumeration.subsets:
        feats = generator_features(dictionary, set(subset))
        linear = _subset_is_linear(fitted, pattern, dictionary, subset,
                                   lifted, closure_tol)
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
