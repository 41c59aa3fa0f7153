"""Demonstration files: state-action records with a provenance header.

CSV layout: comment lines "# key=value" carry provenance (environment name,
expert descriptor, seed, record count, expert return), then a header row
"episode,t,s_0..s_{ds-1},a_0..a_{da-1}" and one row per step. Floats are
written with 17 significant digits, which round-trips 64-bit values exactly.
``load_demos`` rejects a header not exactly that with ds, da >= 1, and a
record with a non-finite value, a column count that differs from the
header, or a non-integer episode or t, naming the file and line, and an
episode whose t values are not consecutive, naming the file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Array = np.ndarray


@dataclass
class DemoSet:
    states: Array      # (N, ds)
    actions: Array     # (N, da)
    episodes: Array    # (N,) int
    timesteps: Array   # (N,) int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        self.actions = np.atleast_2d(np.asarray(self.actions, dtype=np.float64))
        self.episodes = np.asarray(self.episodes, dtype=np.int64)
        self.timesteps = np.asarray(self.timesteps, dtype=np.int64)
        n = len(self.states)
        if not (len(self.actions) == len(self.episodes) == len(self.timesteps) == n):
            raise ValueError("demo arrays must share length")
        for ep in np.unique(self.episodes):
            ts = self.timesteps[self.episodes == ep]
            if not np.array_equal(ts, np.arange(ts.min(), ts.min() + len(ts))):
                raise ValueError(f"episode {ep} timesteps are not contiguous")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    def features(self) -> Array:
        """Concatenated (s, a) rows for density fitting."""
        return np.concatenate([self.states, self.actions], axis=1)


def _columns(ds: int, da: int) -> list[str]:
    return ["episode", "t"] + [f"s_{i}" for i in range(ds)] + [f"a_{i}" for i in range(da)]


def save_demos(path, demos: DemoSet) -> None:
    path = Path(path)
    lines = [f"# {k}={v}" for k, v in sorted(demos.meta.items())]
    lines.append(",".join(_columns(demos.state_dim, demos.action_dim)))
    for i in range(len(demos)):
        row = [str(int(demos.episodes[i])), str(int(demos.timesteps[i]))]
        row += [f"{x:.17g}" for x in demos.states[i]]
        row += [f"{x:.17g}" for x in demos.actions[i]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _parse_row(fields: list[str], n_columns: int, where: str) -> list[float]:
    """One record as floats; a malformed record raises a one-line
    ``ValueError`` that starts with ``where``."""
    if len(fields) != n_columns:
        raise ValueError(f"{where}: {len(fields)} columns, but the header has {n_columns}")
    try:
        values = [float(x) for x in fields]
    except ValueError:
        raise ValueError(f"{where}: non-numeric value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{where}: non-finite value")
    if not (values[0].is_integer() and values[1].is_integer()):
        raise ValueError(f"{where}: episode and t must be integers")
    return values


def load_demos(path) -> DemoSet:
    path = Path(path)
    meta: dict = {}
    header: list[str] | None = None
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            ds = sum(c.startswith("s_") for c in header)
            da = sum(c.startswith("a_") for c in header)
            if ds < 1 or da < 1 or header != _columns(ds, da):
                raise ValueError(f"{path} line {lineno}: header must be "
                                 "episode,t,s_0..s_{ds-1},a_0..a_{da-1} with ds, da >= 1")
            continue
        rows.append(_parse_row(line.split(","), len(header), f"{path} line {lineno}"))
    if header is None or not rows:
        raise ValueError(f"no demonstration records in {path}")
    data = np.array(rows)
    try:
        return DemoSet(states=data[:, 2:2 + ds], actions=data[:, 2 + ds:],
                       episodes=data[:, 0].astype(np.int64),
                       timesteps=data[:, 1].astype(np.int64), meta=meta)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
