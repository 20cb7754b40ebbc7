"""Observable dictionaries: definition, evaluation, and lifting.

A dictionary is an ordered list of closed-form observables over the raw
features. Lifting a trajectory evaluates every observable at every usable
time index and pairs each column with its one-step-ahead partner, window
by window along each trajectory, and the operator fit folds each window
into its triangular factor as it goes. The dictionary also keeps the
functional-dependence graph used by representation analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import edmd
from .errors import (
    ConfigError,
    EvaluationError,
    LiftError,
    ShapeMismatchError,
    UnknownObservableError,
    finite_double,
)
from .trajectories import TrajectorySet

KINDS = ("coordinate", "sin", "cos", "monomial", "delay", "composition")
# The params keys each kind reads; a composition's depend on its form.
_READS = {"coordinate": {"index"}, "sin": {"of"}, "cos": {"of"},
          "monomial": {"exponents"}, "delay": {"of", "lag"}}

# Closed set of named unary maps usable in composition observables.
UNARY_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
}


@dataclass(frozen=True)
class Observable:
    """One dictionary entry.

    ``depends_on`` holds ids of other observables, ``feature_depends`` raw
    feature indices; together they justify every edge of the dependence
    graph. ``lag`` is the total delay depth consumed when evaluating.
    """

    id: str
    kind: str
    params: dict
    depends_on: frozenset[str]
    feature_depends: frozenset[int]
    lag: int


def _kind_delay(oid: str, kind: str, params: dict, ref,
                n_features: int) -> int:
    """Check an entry's params for its kind, pass each reference they make
    to ``ref``, and return the delay the kind itself adds."""
    if kind == "coordinate":
        i = params.get("index")
        if not isinstance(i, int) or isinstance(i, bool) \
                or not 0 <= i < n_features:
            raise ConfigError(
                f"observable {oid!r}: coordinate needs an 'index' in "
                f"[0, {n_features})"
            )
        ref(i)
    elif kind in ("sin", "cos"):
        if "of" not in params:
            raise ConfigError(f"observable {oid!r}: {kind} needs 'of'")
        ref(params["of"])
    elif kind == "monomial":
        exps = params.get("exponents")
        if (not isinstance(exps, (list, tuple))
                or len(exps) != n_features
                or any(not isinstance(e, int) or finite_double(e) is None
                       or e < 0 for e in exps)):
            raise ConfigError(
                f"observable {oid!r}: monomial needs 'exponents', a list "
                f"of {n_features} non-negative integers within the "
                f"double range"
            )
        for i, e in enumerate(exps):
            if e > 0:
                ref(i)
    elif kind == "delay":
        base, d = params.get("of"), params.get("lag")
        if not isinstance(base, str):
            raise ConfigError(
                f"observable {oid!r}: delay needs 'of', a previously "
                f"defined observable id"
            )
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ConfigError(
                f"observable {oid!r}: delay needs integer 'lag' >= 1"
            )
        ref(base)
        return d
    elif "fn" in params:  # a composition of a named function
        fn = params["fn"]
        if not isinstance(fn, str) or fn not in UNARY_FUNCTIONS:
            raise ConfigError(
                f"observable {oid!r}: unknown function {fn!r}; "
                f"choose from {sorted(UNARY_FUNCTIONS)}"
            )
        if not isinstance(params.get("of"), str):
            raise ConfigError(
                f"observable {oid!r}: composition with 'fn' needs "
                f"'of', an observable id"
            )
        ref(params["of"])
    elif "weights" in params:  # a weighted sum
        weights = params["weights"]
        if not isinstance(weights, dict) or not weights:
            raise ConfigError(
                f"observable {oid!r}: 'weights' must be a non-empty "
                f"mapping of observable id to coefficient"
            )
        for key, w in weights.items():
            if finite_double(w) is None:
                raise ConfigError(
                    f"observable {oid!r}: weight for {key!r} must be "
                    f"a finite double, got {w!r}"
                )
            ref(key, what="weights")
        bias = params.get("bias", 0.0)
        if finite_double(bias) is None:
            raise ConfigError(f"observable {oid!r}: 'bias' must be a "
                              f"finite double, got {bias!r}")
    else:
        raise ConfigError(
            f"observable {oid!r}: composition needs 'fn'/'of' or "
            f"'weights'"
        )
    return 0


class Dictionary:
    """Ordered observable dictionary with its dependence graph.

    Build with :meth:`from_spec`; entries reference earlier entries only,
    so the dependence graph is acyclic by construction.
    """

    def __init__(self, observables: list[Observable], n_features: int):
        if not observables:
            raise ConfigError("a dictionary needs at least one observable")
        self.observables: tuple[Observable, ...] = tuple(observables)
        self.n_features = n_features
        self._index = {o.id: i for i, o in enumerate(self.observables)}
        # Dependence graph as bitmasks: the observables and features each
        # observable needs, and the feature each coordinate reads.
        self.needs = tuple((self.mask_of(o.depends_on),
                            sum(1 << f for f in o.feature_depends))
                           for o in self.observables)
        self.reads = tuple(1 << o.params["index"] if o.kind == "coordinate"
                           else 0 for o in self.observables)
        # Coordinates (exponent 1 of their feature) and monomials are
        # products of feature powers, which evaluate lifts as one block.
        self._rows, self._others, exponents = [], [], []
        for k, o in enumerate(self.observables):
            if o.kind == "monomial":
                self._rows.append(k)
                exponents.append(o.params["exponents"])
            elif o.kind == "coordinate":
                self._rows.append(k)
                exponents.append([int(f == o.params["index"])
                                  for f in range(n_features)])
            else:
                self._others.append((k, o))
        # The power table: row 0 is 1.0, then each distinct (feature,
        # exponent > 0).  _powers holds, per feature raised, the (row,
        # exponent) of its powers by rising exponent.  _slots[i] holds, per
        # product, the row of the i-th power it multiplies, in feature
        # order, or row 0 once it has no more.
        powers = sorted({(f, e) for es in exponents
                         for f, e in enumerate(es) if e})
        slot = {fe: r for r, fe in enumerate(powers, 1)}
        self._powers = {}
        for (f, e), r in slot.items():
            self._powers.setdefault(f, []).append((r, e))
        factors = [[slot[f, e] for f, e in enumerate(es) if e]
                   for es in exponents]
        self._slots = np.zeros((max(map(len, factors), default=0) or 1,
                                len(factors)), np.intp)
        for k, rows in enumerate(factors):
            self._slots[:len(rows), k] = rows

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spec(cls, entries: list[dict], n_features: int) -> "Dictionary":
        """Build from a declarative list of ``{id, kind, params, depends_on}``.

        Every reference an entry makes, structural or declared in
        ``depends_on``, is the id of an earlier observable or a feature
        index. ``depends_on`` adds dependence edges but no delay depth.
        """
        if n_features < 1:
            raise ConfigError("n_features must be >= 1")
        seen: dict[str, Observable] = {}
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ConfigError(f"dictionary entry #{index} must be an "
                                  f"object")
            unknown = set(entry) - {"id", "kind", "params", "depends_on"}
            if unknown:
                raise ConfigError(
                    f"dictionary entry #{index}: unknown keys {sorted(unknown)}"
                )
            oid, kind = entry.get("id"), entry.get("kind")
            if not isinstance(oid, str) or not oid:
                raise ConfigError(f"dictionary entry #{index} needs a "
                                  f"non-empty string id")
            if kind not in KINDS:
                raise ConfigError(
                    f"observable {oid!r}: kind must be one of {KINDS}"
                )
            params = entry.get("params", {})
            declared = entry.get("depends_on", [])
            if not isinstance(params, dict):
                raise ConfigError(f"observable {oid!r}: params must be an "
                                  f"object, got {params!r}")
            if not isinstance(declared, list):
                raise ConfigError(f"observable {oid!r}: depends_on must be "
                                  f"a list, got {declared!r}")
            if oid in seen:
                raise ConfigError(f"duplicate observable id {oid!r}")
            obs_deps: set[str] = set()
            feat_deps: set[int] = set()

            def ref(value, what="of"):
                """Record a reference to an earlier id or a feature."""
                if isinstance(value, str):
                    if value not in seen:
                        raise ConfigError(
                            f"observable {oid!r}: {what!r} references "
                            f"{value!r}, which is not a previously defined id"
                        )
                    obs_deps.add(value)
                elif isinstance(value, int) and not isinstance(value, bool):
                    if not 0 <= value < n_features:
                        raise ConfigError(
                            f"observable {oid!r}: feature index {value} out "
                            f"of range for {n_features} features"
                        )
                    feat_deps.add(value)
                else:
                    raise ConfigError(
                        f"observable {oid!r}: {what!r} must be an observable "
                        f"id or a feature index"
                    )

            delay = _kind_delay(oid, kind, params, ref, n_features)
            unread = set(params) - _READS.get(
                kind, {"fn", "of"} if "fn" in params else {"weights", "bias"})
            if unread:
                raise ConfigError(f"observable {oid!r}: {kind} does not read "
                                  f"params {sorted(unread, key=str)}")
            lag = delay + max((seen[o].lag for o in obs_deps), default=0)
            for dep in declared:
                ref(dep, what="depends_on")
            seen[oid] = Observable(oid, kind, dict(params), frozenset(obs_deps),
                                   frozenset(feat_deps), lag)
        return cls(list(seen.values()), n_features)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.observables)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(o.id for o in self.observables)

    def index_of(self, oid: str) -> int:
        try:
            return self._index[oid]
        except KeyError:
            raise UnknownObservableError(f"unknown observable {oid!r}") from None

    def mask_of(self, ids) -> int:
        return sum(1 << i for i in {self.index_of(oid) for oid in ids})

    def ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(o.id for i, o in enumerate(self.observables)
                     if mask >> i & 1)

    def closure_mask(self, mask: int) -> int:
        """:func:`dependence_closure` of a bitmask.  Dependencies come
        earlier and a coordinate joins only once its own feature is read,
        so one pass in order reaches the fixpoint."""
        feats = 0
        for i, reads in enumerate(self.reads):
            if mask >> i & 1:
                feats |= reads
        for i, (obs, feat) in enumerate(self.needs):
            if not obs & ~mask and not feat & ~feats:
                mask |= 1 << i
        return mask

    def regenerated(self, mask: int, closure: int) -> int:
        """The members i of ``mask`` in ``closure_mask(mask & ~(1 << i))``,
        without a closure per member; ``closure`` is ``closure_mask(mask)``.

        i is one exactly when other member coordinates read every feature
        i needs and i's observable needs lie in ``closure``.  Then the
        other members read every feature the members do (a coordinate
        needs its own feature), so both closures agree on the observables
        before i, which hold all of i's observable needs."""
        members = [i for i in range(mask.bit_length()) if mask >> i & 1]
        once = twice = 0  # features read by one member, by two or more
        for i in members:
            twice |= once & self.reads[i]
            once |= self.reads[i]
        found = 0
        for i in members:
            obs, feat = self.needs[i]
            if not obs & ~closure and not feat & ~(once & ~self.reads[i]
                                                   | twice):
                found |= 1 << i
        return found

    @property
    def max_lag(self) -> int:
        return max(o.lag for o in self.observables)

    # -- hashing ----------------------------------------------------------

    def canonical_json(self) -> str:
        """Canonical serialization of the dictionary specification."""
        doc = {"n_features": self.n_features,
               "observables": [{"id": o.id, "kind": o.kind,
                                "params": o.params,
                                "depends_on": sorted(o.depends_on)
                                + sorted(o.feature_depends)}
                               for o in self.observables]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> bytes:
        """SHA-256 of the canonical specification (32 bytes)."""
        # CPython's built-in SHA-256 first, as its ``random`` does for
        # SHA-512: hashlib loads OpenSSL, 3.7 MB of RSS for a few kB here.
        try:
            from _sha2 import sha256  # CPython 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # CPython 3.10-3.11
            except ImportError:
                from hashlib import sha256

        return sha256(self.canonical_json().encode()).digest()

    # -- evaluation -------------------------------------------------------

    def _power_table(self, values: np.ndarray) -> np.ndarray:
        """The power table of an (m, n) block: row 0 is 1.0, then each
        distinct (feature, exponent > 0) by binary powering.  Per feature,
        one scratch row is squared in place up to x^(2^j), and at each bit
        j multiplies in place every power whose exponent has that bit.
        The scratch row is freed before :meth:`evaluate` gathers products."""
        table = np.ones((1 + sum(map(len, self._powers.values())),
                         len(values)))
        square = np.empty(len(values))
        for f, powers in self._powers.items():
            square[:] = values[:, f]
            for j in range(powers[-1][1].bit_length()):
                if j:
                    np.square(square, out=square)
                for r, e in powers:
                    if e >> j & 1:
                        table[r] *= square
        return table

    def evaluate(self, values) -> np.ndarray:
        """Evaluate every observable along an (m, n) block of consecutive
        snapshots, one per row.

        Returns a (d, m) array; column j is the lift of row j, and entries
        before an observable's lag are NaN placeholders. Non-finite values
        inside the valid region raise :class:`EvaluationError`, naming the
        first such observable in dictionary order.

        Coordinates and monomials are products of feature powers, taken in
        one array pass with IEEE multiplications only: x^e squares x up to
        x^(2^j) and multiplies the squares of e's set bits, lowest bit
        first, on the exact integer e; a product multiplies its powers in
        feature order.  So these rows are the same on every IEEE-754
        machine, and exponents 1 and 2 give exactly numpy's ``x ** e``.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.n_features:
            raise ShapeMismatchError(
                f"snapshots must form an (m, {self.n_features}) array, got "
                f"shape {values.shape}"
            )
        m = values.shape[0]
        block = np.empty((len(self._rows), m))

        def operand(refv) -> np.ndarray:
            """An earlier observable's row, or a feature's column."""
            if isinstance(refv, str):
                return out[self._index[refv]]
            return values[:, refv]

        # One errstate for the lift: entering it per observable costs more
        # than a short window's arithmetic.
        with np.errstate(all="ignore"):
            table = self._power_table(values)
            # A product multiplies its powers in feature order, gathered as
            # many rows at a time as the table and a square per feature
            # raised would fill, so that no temporary outgrows them and the
            # gathers stay few.
            step = len(table) + len(self._powers)
            for lo in range(0, len(block), step):
                part = block[lo:lo + step]
                part[:] = table[self._slots[0, lo:lo + step]]
                for slots in self._slots[1:]:
                    part *= table[slots[lo:lo + step]]
            if not self._others:
                out = block
            else:
                out = np.full((len(self.observables), m), np.nan)
                out[self._rows] = block
            for k, obs in self._others:
                s, p = out[k], obs.params
                if obs.kind in ("sin", "cos") or "fn" in p:
                    fn = UNARY_FUNCTIONS[p.get("fn", obs.kind)]
                    fn(operand(p["of"]), out=s)
                elif obs.kind == "delay":
                    d = p["lag"]  # the first d entries stay NaN
                    s[d:] = operand(p["of"])[:max(m - d, 0)]
                else:  # a weighted sum
                    s[:] = float(p.get("bias", 0.0))
                    for key, w in p["weights"].items():
                        s += float(w) * operand(key)
        if self._others or not np.isfinite(out).all():
            for obs, s in zip(self.observables, out):
                if obs.lag < m and not np.isfinite(s[obs.lag:]).all():
                    bad = obs.lag + int(np.argmax(~np.isfinite(s[obs.lag:])))
                    raise EvaluationError(
                        f"observable {obs.id!r} produced a non-finite value "
                        f"at window position {bad}"
                    )
        return out


def lift_trajectories(dictionary: Dictionary, data: TrajectorySet,
                      outputs: bool = False):
    """Yield segments for the operator fit, trajectory by trajectory and in
    time order: ``(current, shifted)``, views of a window's lift one time
    step apart, plus with ``outputs`` the raw features of the snapshots
    lifted into ``current``.

    A window lifts at most ``max(FIT_BLOCK_BYTES // (8 d), max_lag + 2)``
    snapshots, so a long trajectory is never lifted whole. A trajectory's
    windows overlap by ``max_lag + 1`` rows, and each after its first is
    :class:`~koopmodel.edmd.Continued`; a trajectory that fits one window
    yields one plain tuple. The last snapshot of one trajectory is never
    paired with the first of the next. Trajectories too short to produce
    a single column pair are an error, raised before the first segment.
    """
    if data.n_features != dictionary.n_features:
        raise ShapeMismatchError(
            f"data has {data.n_features} features, dictionary expects "
            f"{dictionary.n_features}"
        )
    lag = dictionary.max_lag
    too_short = [t.id for t in data.trajectories if len(t) - 1 - lag < 1]
    if too_short:
        raise LiftError(
            f"trajectories too short to lift with delay depth {lag}: "
            f"{too_short}"
        )
    # Pairs per window, which also lifts lag rows of history and the last
    # pair's successor.
    span = max(1, edmd.FIT_BLOCK_BYTES // (8 * len(dictionary)) - lag - 1)
    for traj in data.trajectories:
        values, window = traj.values, tuple
        # Every row with a successor and enough history for the deepest delay.
        for start in range(lag, len(values) - 1, span):
            stop = min(start + span, len(values) - 1)
            try:
                lifted = dictionary.evaluate(values[start - lag:stop + 1])
            except EvaluationError as exc:
                raise EvaluationError(f"{exc} (the window starts at row "
                                      f"{start - lag} of trajectory "
                                      f"{traj.id!r})") from exc
            segment = (lifted[:, lag:-1], lifted[:, lag + 1:])
            yield window(segment + (values[start:stop].T,) if outputs
                         else segment)
            window = edmd.Continued


def dependence_closure(dictionary: Dictionary,
                       seed: set[str]) -> frozenset[str]:
    """Observables functionally generated by a seed set.

    An observable joins the closure once every one of its dependencies is
    generated: observable dependencies must already be in the closure, and a
    feature dependency counts as generated when the closure contains a
    coordinate observable reading that feature. Monotone and idempotent.
    """
    mask = dictionary.closure_mask(dictionary.mask_of(seed))
    return frozenset(dictionary.ids_of(mask))


def generator_features(dictionary: Dictionary,
                       ids: set[str]) -> frozenset[int]:
    """Raw features a set of observables transitively depends on."""
    mask, feats = dictionary.mask_of(ids), 0
    for i in reversed(range(len(dictionary))):  # dependencies come earlier
        if mask >> i & 1:
            mask |= dictionary.needs[i][0]
            feats |= dictionary.needs[i][1]
    return frozenset(f for f in range(dictionary.n_features) if feats >> f & 1)
