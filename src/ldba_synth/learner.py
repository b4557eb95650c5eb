"""Tabular Q-learning on the synchronized product.

The table is sparse over visited (state, action) pairs; unseen entries
read as q_init. Exploration is epsilon-greedy with deterministic
lowest-index tie-breaking over the product's available-action order, so
identical specs, hyper-parameters and seed reproduce runs bit for bit.

By default training pays a frontier reward of 1 - eta. Under the
state-dependent discount (eta exactly on steps that fire the frontier, 1
elsewhere) the k-th reward of a run is worth eta^(k-1) * r regardless of
spacing, so an endlessly satisfying run is worth r/(1-eta): scaling r to
1 - eta puts greedy values on the satisfaction-probability scale, while
leaving trajectories untouched (positive reward scaling does not change
argmax decisions or the rng draw sequence when q_init is 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .automaton import LdbaSpec
from .product import ProductRun, RewardSpec


@dataclass
class Hyperparams:
    """Training knobs; defaults follow the tool's standard configuration."""

    algorithm: str = "ql"
    episode_num: int = 2500
    iteration_num_max: int = 4000
    discount_factor: float = 0.95
    learning_rate: float = 0.9
    epsilon: float = 0.1
    test: bool = True
    save_dir: str = "./results"
    average_window: int = -1
    seed: int = 0
    q_init: float = 0.0
    positive_reward: float | None = None  # None -> 1 - discount_factor
    learning_rate_decay: float = 0.0

    def validate(self):
        if self.algorithm != "ql":
            raise ValueError(f"unsupported algorithm {self.algorithm!r}")
        if self.episode_num < 0:
            raise ValueError("episode_num must be >= 0")
        if self.iteration_num_max <= 0:
            raise ValueError("iteration_num_max must be positive")
        if not 0.0 < self.discount_factor < 1.0:
            raise ValueError("discount_factor must lie strictly inside (0, 1)")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.positive_reward is not None and self.positive_reward <= 0.0:
            raise ValueError("positive_reward must be positive")
        if self.learning_rate_decay < 0.0:
            raise ValueError("learning_rate_decay must be >= 0")

    def reward_spec(self) -> RewardSpec:
        rp = self.positive_reward
        if rp is None:
            rp = 1.0 - self.discount_factor
        return RewardSpec(eta=self.discount_factor, positive_reward=rp)


class QTable:
    """Sparse value table over visited (product state, action) pairs."""

    def __init__(self, q_init: float = 0.0):
        self.q_init = q_init
        self._table: dict[tuple, dict[str, float]] = {}

    def value(self, state, action) -> float:
        row = self._table.get(state)
        if row is None:
            return self.q_init
        return row.get(action, self.q_init)

    def best_value(self, state, actions) -> float:
        row = self._table.get(state)
        if row is None:
            return self.q_init
        get, q_init = row.get, self.q_init
        best = get(actions[0], q_init)
        for a in actions:
            v = get(a, q_init)
            if v > best:
                best = v
        return best

    def best_action(self, state, actions) -> str:
        """Argmax with lowest-index tie-breaking; unseen states pick actions[0]."""
        row = self._table.get(state)
        if row is None:
            return actions[0]
        get, q_init = row.get, self.q_init
        best = actions[0]
        best_v = get(best, q_init)
        for a in actions:
            v = get(a, q_init)
            if v > best_v:
                best, best_v = a, v
        return best

    def row(self, state) -> dict[str, float]:
        """The mutable action-value row of state, created empty if unseen."""
        row = self._table.get(state)
        if row is None:
            row = self._table[state] = {}
        return row

    def set(self, state, action, value: float):
        self.row(state)[action] = value

    def items(self):
        for state, row in self._table.items():
            for action, value in row.items():
                yield state, action, value

    def states(self):
        return self._table.keys()

    def __len__(self):
        return sum(len(row) for row in self._table.values())

    def __eq__(self, other):
        return (isinstance(other, QTable) and self.q_init == other.q_init
                and self._table == other._table)


def select_action(qtable: QTable, state, actions, epsilon: float, rng) -> str:
    """Epsilon-greedy over the available actions; greedy skips the rng draw."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return actions[rng.randrange(len(actions))]
    return qtable.best_action(state, actions)


def q_update(qtable: QTable, state, action, reward, gamma, next_state,
             next_actions, mu: float) -> float:
    target = reward + gamma * qtable.best_value(next_state, next_actions)
    row = qtable.row(state)
    new = (1.0 - mu) * row.get(action, qtable.q_init) + mu * target
    row[action] = new
    return new


@dataclass
class EpisodeStats:
    episode: int
    cumulative_reward: float
    steps: int
    sweeps_completed: int
    reached_sink: bool
    positive_reward_counts: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    q_table: QTable
    stats: list[EpisodeStats]
    interrupted: bool = False

    def positive_reward_counts(self) -> dict:
        merged: dict = {}
        for ep in self.stats:
            for state, n in ep.positive_reward_counts.items():
                merged[state] = merged.get(state, 0) + n
        return merged


def train(env, ldba_spec: LdbaSpec, hp: Hyperparams, on_episode=None) -> TrainResult:
    """Run episodic Q-learning; deterministic given (env, spec, hp.seed).

    Episodes end on the automaton sink or after iteration_num_max steps.
    A KeyboardInterrupt stops cleanly and returns the partial result.
    """
    hp.validate()
    rng = random.Random(hp.seed)
    run = ProductRun(env, ldba_spec, hp.reward_spec(), rng)
    qtable = QTable(hp.q_init)
    visits: dict[tuple, int] = {}
    decay = hp.learning_rate_decay
    epsilon = hp.epsilon
    learning_rate = hp.learning_rate
    stats: list[EpisodeStats] = []
    interrupted = False

    try:
        for episode in range(hp.episode_num):
            state = run.reset()
            actions = run.available_actions(state)
            total = 0.0
            steps = 0
            sink = False
            fires: dict = {}
            for _ in range(hp.iteration_num_max):
                action = select_action(qtable, state, actions, epsilon, rng)
                tr = run.step(action)
                mu = learning_rate
                if decay > 0.0:
                    key = (state, action)
                    seen = visits.get(key, 0)
                    visits[key] = seen + 1
                    mu = mu / (1.0 + seen * decay)
                next_state = tr.next_state
                actions = run.available_actions(next_state)
                q_update(qtable, state, action, tr.reward, tr.gamma, next_state, actions, mu)
                total += tr.reward
                steps += 1
                if tr.fired:
                    fires[state] = fires.get(state, 0) + 1
                state = next_state
                if tr.done:
                    sink = True
                    break
            ep_stats = EpisodeStats(episode, total, steps, run.runtime.sweeps_completed,
                                    sink, fires)
            stats.append(ep_stats)
            if on_episode is not None:
                on_episode(ep_stats)
    except KeyboardInterrupt:
        interrupted = True

    return TrainResult(qtable, stats, interrupted)


class GreedyPolicy:
    """Deterministic greedy policy induced by a Q table."""

    def __init__(self, qtable: QTable, ldba_spec: LdbaSpec, env_actions):
        self.qtable = qtable
        self.spec = ldba_spec
        self.env_actions = tuple(env_actions)
        self._legal = ldba_spec.compiled.action_table(self.env_actions).legal

    def actions_for(self, q: int) -> tuple[str, ...]:
        return self._legal[q]

    def __call__(self, state) -> str:
        return self.qtable.best_action(state, self._legal[state[1]])


def greedy_policy(qtable: QTable, ldba_spec: LdbaSpec, env_actions) -> GreedyPolicy:
    return GreedyPolicy(qtable, ldba_spec, env_actions)


def moving_average(values, window: int) -> list[float]:
    """Trailing moving average; window <= 0 selects 30% of the series length."""
    if window <= 0:
        window = max(1, round(0.3 * len(values)))
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out
