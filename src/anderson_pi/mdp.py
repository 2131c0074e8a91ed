"""Finite tabular MDPs: construction, generators, validation, JSON persistence.

A :class:`TabularMdp` bundles the transitions, stored as padded successor
lists, the reward table ``R[s, a]`` and the discount as read-only copies,
so it can be shared freely across concurrent runs.  It sweeps as its
one-MDP :class:`MdpStack`, whose ``expectation`` is the one transition matvec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_SUM_TOL = 1e-12

_FILE_KEYS = ("n_states", "n_actions", "gamma", "rewards", "transitions")


class MdpFormatError(ValueError):
    """An MDP file violates the on-disk schema."""


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``; the caller's array stays as it was."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _successor_lists(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of a dense ``(S, A, S)`` tensor as padded rows."""
    ns, na, _ = p.shape
    flat = p.reshape(ns * na, ns)
    rows, cols = np.nonzero(flat)  # row-major, so ascending within a row
    counts = np.bincount(rows, minlength=ns * na)
    k = max(int(counts.max()), 1)
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    successors = np.zeros((ns * na, k), dtype=np.intp)
    probs = np.zeros((ns * na, k))
    successors[rows, slots] = cols
    probs[rows, slots] = flat[rows, cols]
    return successors.reshape(ns, na, k), probs.reshape(ns, na, k)


@dataclass(frozen=True, init=False, eq=False)
class TabularMdp:
    """Finite MDP with sparse transitions, rewards and a discount factor.

    Row ``(s, a)`` of the transitions is ``successors[s, a]`` (ascending)
    with probabilities ``probs[s, a]``.  Both are ``(S, A, k)`` arrays,
    ``k`` the largest support size; shorter rows are padded with
    successor 0 at probability 0.0.  The constructor takes the dense
    tensor ``P[s, a, s']``; :meth:`from_successors` takes the lists.
    The arrays are read-only copies; the sweep runs on :attr:`stack`.

    Structural problems (wrong shapes, non-positive sizes) fail at
    construction; probabilistic invariants are reported by
    :func:`validate` so that broken instances can still be inspected.
    """

    n_states: int
    n_actions: int
    successors: np.ndarray
    probs: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __init__(self, n_states, n_actions, transitions, rewards, gamma):
        _check_sizes(n_states, n_actions)
        p = np.asarray(transitions, dtype=np.float64)
        expected_p = (n_states, n_actions, n_states)
        if p.shape != expected_p:
            raise ValueError(f"transitions shape {p.shape} != {expected_p}")
        self._store(n_states, n_actions, *_successor_lists(p), rewards, gamma)

    @classmethod
    def from_successors(
        cls, n_states, n_actions, successors, probs, rewards, gamma
    ) -> TabularMdp:
        """Build from padded successor lists, never touching a dense tensor."""
        _check_sizes(n_states, n_actions)
        succ = np.asarray(successors)
        if (
            succ.ndim != 3
            or succ.shape[:2] != (n_states, n_actions)
            or succ.shape[2] < 1
            or np.shape(probs) != succ.shape
        ):
            raise ValueError(
                f"successors {succ.shape} and probs {np.shape(probs)} must both "
                f"be ({n_states}, {n_actions}, k) with k >= 1"
            )
        if succ.min() < 0 or succ.max() >= n_states:
            raise ValueError(f"successor index outside [0, {n_states})")
        mdp = object.__new__(cls)
        mdp._store(n_states, n_actions, succ, probs, rewards, gamma)
        return mdp

    def _store(self, n_states, n_actions, successors, probs, rewards, gamma):
        r = _frozen(rewards)
        expected_r = (n_states, n_actions)
        if r.shape != expected_r:
            raise ValueError(f"rewards shape {r.shape} != {expected_r}")
        for name, value in (
            ("n_states", n_states),
            ("n_actions", n_actions),
            ("successors", _frozen(successors, np.intp)),
            ("probs", _frozen(probs)),
            ("rewards", r),
            ("gamma", float(gamma)),
        ):
            object.__setattr__(self, name, value)

    @cached_property
    def stack(self) -> MdpStack:
        """The one-MDP :class:`MdpStack` the Bellman sweep runs on, built once and kept."""
        return MdpStack([self])

    @cached_property
    def transitions(self) -> np.ndarray:
        """Dense read-only ``P[s, a, s']``, built on first access and kept.

        The package never reads it: the Bellman sweep works on the
        successor lists, and :func:`validate` and :func:`save_mdp` build
        their own copies with :func:`_dense` and drop them when done.
        """
        return _dense(self)

    @property
    def n_entries(self) -> int:
        return self.n_states * self.n_actions


class MdpStack:
    """B same-shape MDPs, swept by one Bellman call.

    Row ``b`` of ``rewards`` (``(B, S, A)``) and ``gamma`` (``(B, 1, 1)``)
    belongs to ``mdps[b]``.  The successor lists are stacked
    successor-major as ``(k, B, S, A)``, padded to the largest ``k`` with
    successor 0 at probability 0.0, and offset by ``b * S``, so one gather
    from the stacked values ``v`` (length ``B * S``) serves every MDP; a
    :class:`TabularMdp` sweeps as a stack of one.  The arrays are read-only.
    """

    def __init__(self, mdps):
        mdps = tuple(mdps)
        if not mdps:
            raise ValueError("need at least one MDP")
        shapes = {m.rewards.shape for m in mdps}
        if len(shapes) != 1:
            raise ValueError(f"MDPs differ in shape: {sorted(shapes)}")
        k = max(m.successors.shape[2] for m in mdps)
        successors = np.zeros((k, len(mdps), *mdps[0].rewards.shape), dtype=np.intp)
        probs = np.zeros(successors.shape)
        for row, m in enumerate(mdps):
            kb = m.successors.shape[2]
            successors[:kb, row] = m.successors.transpose(2, 0, 1)
            probs[:kb, row] = m.probs.transpose(2, 0, 1)
        successors += (np.arange(len(mdps)) * mdps[0].n_states)[:, None, None]
        self._store(
            mdps,
            successors,
            probs,
            np.stack([m.rewards for m in mdps]),
            np.array([m.gamma for m in mdps])[:, None, None],
        )

    def _store(self, mdps, successors, probs, rewards, gamma) -> None:
        self.mdps = mdps
        # ndarray.take copies a read-only index array on every call (313 against
        # 42 us at 2000x8), so the gather keeps the writeable original
        self._gather, self.successors = successors, successors.view()
        self.probs, self.rewards, self.gamma = probs, rewards, gamma
        for a in (self.successors, self.probs, self.rewards, self.gamma):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.mdps)

    def take(self, rows) -> MdpStack:
        """The stack of the MDPs at ``rows``, in that order.

        Slices the stacked arrays, with no pass over the MDPs' own lists:
        each kept row's indices move by ``S`` per row it moves up, and the
        padding is trimmed to the kept MDPs' largest ``k``, so the result
        equals ``MdpStack`` of those MDPs bitwise.
        """
        mdps = tuple(self.mdps[r] for r in rows)
        rows = np.asarray(rows, dtype=np.intp)
        k = max(m.successors.shape[2] for m in mdps)
        successors = self._gather[:k].take(rows, axis=1)
        successors -= ((rows - np.arange(len(rows))) * mdps[0].n_states)[:, None, None]
        sub = object.__new__(MdpStack)
        sub._store(
            mdps,
            successors,
            self.probs[:k].take(rows, axis=1),
            self.rewards[rows],
            self.gamma[rows],
        )
        return sub

    def expectation(self, v: np.ndarray) -> np.ndarray:
        """Every MDP's transition matvec as ``(B, S, A)``: a sum of ``k`` contiguous planes."""
        terms = v.take(self._gather)
        terms *= self.probs
        return terms.sum(axis=0)


def _dense(mdp: TabularMdp) -> np.ndarray:
    """A new read-only dense ``P[s, a, s']`` of ``mdp``'s successor lists."""
    p = np.zeros((mdp.n_states, mdp.n_actions, mdp.n_states))
    s, a, _ = np.indices(mdp.successors.shape, sparse=True)
    np.add.at(p, (s, a, mdp.successors), mdp.probs)
    p.setflags(write=False)
    return p


def _check_sizes(n_states, n_actions) -> None:
    if n_states < 1 or n_actions < 1:
        raise ValueError(
            f"n_states and n_actions must be positive, got ({n_states}, {n_actions})"
        )


def _check_discount(gamma) -> None:
    if not 0.0 <= gamma < 1.0:  # nan fails too
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")


def validate(mdp: TabularMdp) -> list[str]:
    """Return the list of violated invariants (empty means valid).

    Never mutates or raises; every violation names the offending field
    and indices.
    """
    violations: list[str] = []
    if not np.isfinite(mdp.gamma) or not (0.0 <= mdp.gamma < 1.0):
        violations.append(f"discount not in [0,1): gamma={mdp.gamma!r}")
    bad_r = np.argwhere(~np.isfinite(mdp.rewards))
    for s, a in bad_r:
        violations.append(f"reward (s={s}, a={a}) is not finite")
    p = _dense(mdp)
    finite = np.isfinite(p)
    in_range = finite & (p >= 0.0) & (p <= 1.0)
    for s, a, t in np.argwhere(~in_range):
        violations.append(
            f"transition (s={s}, a={a}, s'={t}) = {p[s, a, t]!r} outside [0,1]"
        )
    with np.errstate(invalid="ignore"):
        sums = p.sum(axis=2)
    bad_rows = np.argwhere(~(np.abs(sums - 1.0) <= PROB_SUM_TOL))
    for s, a in bad_rows:
        violations.append(
            f"transition row (s={s}, a={a}) sums to {sums[s, a]!r}, "
            f"expected 1 within {PROB_SUM_TOL}"
        )
    return violations


def generate_random_mdp(
    seed: int,
    n_states: int,
    n_actions: int,
    branching: int,
    reward_scale: float = 1.0,
    gamma: float = 0.95,
) -> TabularMdp:
    """Random MDP where every (s, a) supports exactly ``branching`` successors.

    Fully deterministic given the arguments: the same seed produces
    bitwise-identical arrays.  The successor lists are filled directly,
    so no dense tensor is ever allocated.
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError(f"need n_states, n_actions >= 1, got ({n_states}, {n_actions})")
    if not (1 <= branching <= n_states):
        raise ValueError(f"branching must be in [1, n_states], got {branching}")
    _check_discount(gamma)
    rng = np.random.default_rng(seed)
    successors = np.empty((n_states, n_actions, branching), dtype=np.intp)
    probs = np.empty((n_states, n_actions, branching))
    for s in range(n_states):
        for a in range(n_actions):
            successors[s, a] = rng.choice(n_states, size=branching, replace=False)
            # strictly positive so the support size is exactly `branching`
            weights = 0.5 * (1.0 + rng.random(branching))
            probs[s, a] = weights / weights.sum()
    order = np.argsort(successors, axis=2)
    successors = np.take_along_axis(successors, order, axis=2)
    probs = np.take_along_axis(probs, order, axis=2)
    rewards = rng.uniform(-reward_scale, reward_scale, size=(n_states, n_actions))
    return TabularMdp.from_successors(
        n_states, n_actions, successors, probs, rewards, gamma
    )


def generate_gridworld(
    width: int,
    height: int,
    slip_prob: float,
    goal_reward: float,
    gamma: float,
) -> TabularMdp:
    """Grid navigation MDP with slip noise and an absorbing goal.

    States are indexed ``s = y * width + x`` with y=0 the bottom row.
    Actions: 0=up, 1=right, 2=down, 3=left.  The intended move succeeds
    with probability ``1 - slip_prob``; otherwise one of the other three
    directions is taken uniformly.  Moves off the grid stay in place.
    The goal is the top-right corner: entering it pays ``goal_reward``,
    and it is absorbing with zero continuing reward.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be >= 1, got ({width}, {height})")
    if not (0.0 <= slip_prob < 1.0):
        raise ValueError(f"slip_prob must be in [0,1), got {slip_prob}")
    _check_discount(gamma)
    n_states = width * height
    n_actions = 4
    goal = (height - 1) * width + (width - 1)
    moves = ((0, 1), (1, 0), (0, -1), (-1, 0))  # up, right, down, left as (dx, dy)
    p = np.zeros((n_states, n_actions, n_states))
    r = np.zeros((n_states, n_actions))
    for y in range(height):
        for x in range(width):
            s = y * width + x
            if s == goal:
                p[s, :, s] = 1.0
                continue
            for a in range(n_actions):
                for d, (dx, dy) in enumerate(moves):
                    prob = (1.0 - slip_prob) if d == a else slip_prob / 3.0
                    if prob == 0.0:
                        continue
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height:
                        t = ny * width + nx
                    else:
                        t = s
                    p[s, a, t] += prob
                r[s, a] = goal_reward * p[s, a, goal]
    return TabularMdp(n_states, n_actions, p, r, gamma)


def _fmt(x: float) -> str:
    # 17 significant decimal digits round-trip any IEEE double exactly
    return format(float(x), ".17g")


def save_mdp(mdp: TabularMdp, path) -> None:
    """Write ``mdp`` as a JSON document with 17-significant-digit reals."""
    violations = validate(mdp)
    if violations:
        raise ValueError("cannot save invalid MDP: " + "; ".join(violations))
    p = _dense(mdp)
    rewards_rows = [
        "[" + ", ".join(_fmt(v) for v in row) + "]" for row in mdp.rewards
    ]
    trans_blocks = []
    for s in range(mdp.n_states):
        rows = [
            "[" + ", ".join(_fmt(v) for v in p[s, a]) + "]"
            for a in range(mdp.n_actions)
        ]
        trans_blocks.append("[" + ", ".join(rows) + "]")
    text = (
        "{\n"
        f'  "n_states": {mdp.n_states},\n'
        f'  "n_actions": {mdp.n_actions},\n'
        f'  "gamma": {_fmt(mdp.gamma)},\n'
        '  "rewards": [\n    '
        + ",\n    ".join(rewards_rows)
        + "\n  ],\n"
        '  "transitions": [\n    '
        + ",\n    ".join(trans_blocks)
        + "\n  ]\n"
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _as_array(data, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MdpFormatError(f"field '{name}': not a numeric array ({exc})") from None
    if arr.shape != shape:
        raise MdpFormatError(
            f"field '{name}': dimension mismatch, expected {shape}, got {arr.shape}"
        )
    return arr


def load_mdp(path) -> TabularMdp:
    """Parse an MDP file, rejecting schema violations with field context."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MdpFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise MdpFormatError("top-level value must be an object")
    missing = [k for k in _FILE_KEYS if k not in data]
    if missing:
        raise MdpFormatError(f"missing key(s): {', '.join(missing)}")
    extra = [k for k in data if k not in _FILE_KEYS]
    if extra:
        raise MdpFormatError(f"unexpected key(s): {', '.join(sorted(extra))}")
    for name in ("n_states", "n_actions"):
        if not isinstance(data[name], int) or isinstance(data[name], bool):
            raise MdpFormatError(f"field '{name}': must be an integer")
        if data[name] < 1:
            raise MdpFormatError(f"field '{name}': must be positive, got {data[name]}")
    if isinstance(data["gamma"], bool) or not isinstance(data["gamma"], (int, float)):
        raise MdpFormatError("field 'gamma': must be a number")
    ns, na = data["n_states"], data["n_actions"]
    rewards = _as_array(data["rewards"], "rewards", (ns, na))
    transitions = _as_array(data["transitions"], "transitions", (ns, na, ns))
    mdp = TabularMdp(ns, na, transitions, rewards, float(data["gamma"]))
    violations = validate(mdp)
    if violations:
        raise MdpFormatError("; ".join(violations))
    return mdp
