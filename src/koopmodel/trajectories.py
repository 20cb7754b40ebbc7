"""Raw observed data: regularly sampled trajectories stored as arrays."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Trajectory:
    """Snapshots at times ``t0, t0 + 1, ...``: one per row of ``values``, a
    read-only (m, n) float array (a 1-D input is one feature). A writable
    input is copied; a read-only one is shared."""

    values: np.ndarray
    id: str
    t0: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.flags.writeable:
            values = values.copy()
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise InputError("trajectory array must be 1-D or 2-D")
        if len(values) < 2:
            raise InputError(f"trajectory {self.id!r} needs at least 2 snapshots")
        t0 = operator.index(self.t0)
        if t0 < 0:
            raise InputError(f"trajectory {self.id!r}: time_index must be "
                             f"non-negative, got t0={t0}")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            bad = t0 + int(np.argmin(finite))
            raise InputError(f"snapshot at t={bad} contains NaN/Inf entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t0", t0)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def feature_series(self, feature: int) -> np.ndarray:
        """The scalar time series of one feature, ordered by time."""
        return self.values[:, feature]


@dataclass(frozen=True)
class TrajectorySet:
    """One or more trajectories sharing a common feature layout."""

    trajectories: tuple[Trajectory, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        names = tuple(self.feature_names)
        if not trajs:
            raise InputError("a trajectory set needs at least one trajectory")
        n = len(names)
        for traj in trajs:
            if traj.n_features != n:
                raise InputError(
                    f"trajectory {traj.id!r} has {traj.n_features} features, "
                    f"expected {n}"
                )
        ids = [t.id for t in trajs]
        if len(set(ids)) != len(ids):
            raise InputError("trajectory ids must be unique")
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def trajectory_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.trajectories)

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise InputError(f"column {name!r} not in data (features: "
                             f"{list(self.feature_names)})") from None

    def trajectory(self, id: str) -> Trajectory:
        for traj in self.trajectories:
            if traj.id == id:
                return traj
        raise InputError(f"unknown trajectory {id!r}")
