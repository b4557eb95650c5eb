"""Tabular Q-learning on the synchronized product.

The table holds a row per visited product state over its legal action
ids, the ids of the training run's compiled product; unwritten entries
read as q_init. Every update uses the one learning rate mu. Exploration
is epsilon-greedy with deterministic lowest-index tie-breaking over the
product's action order, so identical specs, hyper-parameters and seed
reproduce runs bit for bit. The table keeps each row's greedy action as
it is written, so neither selection nor the update's target scans a row.
Hyperparams.validate bounds the value scale, so every value stays
finite: with NaN, max and so the greedy index would depend on order.

The learner pays the frontier reward: a product step reports whether it
fired the accepting frontier or hit the sink, and Hyperparams.payoffs
turns that into (reward, gamma), for train and for the test trace. A
fired step pays r and discounts by eta, a step into the sink pays 0 and
discounts by 0 (nothing follows it), any other pays 0 undiscounted. The
k-th reward of a run is then worth eta^(k-1) * r regardless of spacing,
so an endlessly satisfying run is worth r/(1-eta). By default r is
1 - eta, which puts greedy values on the satisfaction-probability scale
while leaving trajectories untouched (positive reward scaling does not
change argmax decisions or the rng draw sequence when q_init is 0).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .automaton import LdbaSpec
from .envs import require_field_types, require_positive
from .product import CompiledProduct, ProductRun


MAX_VALUE_SCALE = sys.float_info.max / 2


@dataclass
class Hyperparams:
    """What one training run reads; the only home of each training default."""

    episode_num: int = 2500
    iteration_num_max: int = 4000
    discount_factor: float = 0.95
    learning_rate: float = 0.9
    epsilon: float = 0.1
    seed: int = 0
    q_init: float = 0.0
    positive_reward: float | None = None  # None -> 1 - discount_factor

    def validate(self):
        require_field_types(self)
        if self.episode_num < 0:
            raise ValueError("episode_num must be >= 0")
        require_positive(iteration_num_max=self.iteration_num_max)
        if not 0.0 < self.discount_factor < 1.0:
            raise ValueError("discount_factor must lie strictly inside (0, 1)")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.seed < 0:  # Random(-s) seeds as Random(s) does
            raise ValueError("seed must be >= 0")
        require_positive(positive_reward=self.frontier_reward())
        for name in ("positive_reward", "q_init"):
            if not math.isfinite(getattr(self, name) or 0.0):  # None is the default reward
                raise ValueError(f"{name} must be finite")
        # Every Q value stays within [-scale, scale]; at most half the largest
        # float, a step's sums of two such terms cannot overflow to inf (and
        # 0 * inf to NaN, which would leave the greedy index undefined).
        scale = max(abs(self.q_init), self.frontier_reward() / (1.0 - self.discount_factor))
        if not scale <= MAX_VALUE_SCALE:
            raise ValueError(f"values would reach {scale:g}, above half the largest float "
                             "(positive_reward / (1 - discount_factor) and |q_init| must "
                             f"not exceed {MAX_VALUE_SCALE:g})")

    def frontier_reward(self) -> float:
        """What a step that fires the frontier pays: positive_reward, or 1 - eta."""
        rp = self.positive_reward
        return 1.0 - self.discount_factor if rp is None else rp

    def payoffs(self) -> tuple[tuple[float, float], ...]:
        """(reward, gamma) of a fired step, of a step into the sink, of any other step."""
        return (self.frontier_reward(), self.discount_factor), (0.0, 0.0), (0.0, 1.0)


class QTable:
    """Action values over product ids: ``rows[state][action]``, one flat row
    per visited state. Unwritten entries read q_init; ``written[state]``
    flags the written ones, which are the entries a model file holds.
    ``greedy[state]`` is the row's greedy action, the lowest index of its
    maximum, kept current by every write, so no reader scans a row.
    """

    def __init__(self, product, q_init: float = 0.0):
        self.product = product
        self.q_init = q_init
        self.rows: dict[int, list[float]] = {}
        self.written: dict[int, bytearray] = {}
        self.greedy: dict[int, int] = {}

    def row(self, state) -> list[float]:
        """The mutable row of state, created at q_init if unseen."""
        row = self.rows.get(state)
        if row is None:
            width = len(self.product.legal[state % self.product.nq])
            row = self.rows[state] = [self.q_init] * width
            self.written[state] = bytearray(width)
            self.greedy[state] = 0
        return row

    def value(self, state, action) -> float:
        row = self.rows.get(state)
        return self.q_init if row is None else row[action]

    def best_value(self, state) -> float:
        """max(row), bit for bit: the entry at the greedy action."""
        row = self.rows.get(state)
        return self.q_init if row is None else row[self.greedy[state]]

    def best_action(self, state) -> int:
        """Argmax with lowest-index tie-breaking; an unseen state picks action 0."""
        return self.greedy.get(state, 0)

    def set(self, state, action, value: float):
        """Write one entry and rescan its row for the greedy action."""
        row = self.row(state)
        row[action] = value
        self.written[state][action] = 1
        self.greedy[state] = row.index(max(row))

    def items(self):
        """The written entries as (((row, col), q), action name, value), as saved."""
        product = self.product
        for state, flags in self.written.items():
            names, row = product.action_names(state), self.rows[state]
            for action, flag in enumerate(flags):
                if flag:
                    yield product.decode(state), names[action], row[action]

    def __len__(self):
        return sum(map(sum, self.written.values()))

    def __eq__(self, other):
        return (isinstance(other, QTable) and self.q_init == other.q_init
                and self.written == other.written and self.rows == other.rows)


def select_action(qtable: QTable, state, actions, epsilon: float, rng) -> int:
    """Epsilon-greedy over legal action ids; the greedy branch reads the
    table's greedy index and draws nothing. The exploring draw is
    rng.randrange(len(actions)) written out: the same getrandbits calls,
    so the same draws and generator state, without randrange's call layers.
    """
    if epsilon > 0.0 and rng.random() < epsilon:
        n = len(actions)
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return actions[r]
    return qtable.greedy.get(state, 0)


def q_update(qtable: QTable, state, action, reward, gamma, next_state, mu: float) -> float:
    """One Q-learning update of (state, action); keeps the row's greedy index.

    The target reads next_state's greedy entry, which is max(row) bit for
    bit, before the write, as a self-loop needs. After the write, a greedy
    entry that went down rescans its row; any other write moves the index
    to action only when it beats the greedy entry, or ties it at a lower index.
    """
    rows, greedy = qtable.rows, qtable.greedy
    after = rows.get(next_state)
    target = reward + gamma * (qtable.q_init if after is None else after[greedy[next_state]])
    row = rows.get(state) or qtable.row(state)
    old = row[action]
    new = (1.0 - mu) * old + mu * target
    row[action] = new
    qtable.written[state][action] = 1
    g = greedy[state]
    if action == g:
        if new < old:
            greedy[state] = row.index(max(row))
    elif new > row[g] or new == row[g] and action < g:
        greedy[state] = action
    return new


@dataclass
class EpisodeStats:
    episode: int
    cumulative_reward: float
    steps: int
    sweeps_completed: int
    reached_sink: bool


@dataclass
class TrainResult:
    q_table: QTable
    stats: list[EpisodeStats]
    interrupted: bool = False


def train(env, ldba_spec: LdbaSpec, hp: Hyperparams, on_episode=None) -> TrainResult:
    """Run episodic Q-learning; deterministic given (env, spec, hp.seed).

    Episodes end on the automaton sink or after iteration_num_max steps.
    A KeyboardInterrupt stops cleanly and returns the partial result.
    """
    hp.validate()
    rng = random.Random(hp.seed)
    product = CompiledProduct(env, ldba_spec)
    run = ProductRun(product, rng)
    qtable = QTable(product, hp.q_init)
    legal, nq = product.legal, product.nq
    epsilon, mu = hp.epsilon, hp.learning_rate
    fire, sink, plain = hp.payoffs()
    stats: list[EpisodeStats] = []
    interrupted = False

    try:
        for episode in range(hp.episode_num):
            state = run.reset()
            actions = run.available_actions(state)
            total = 0.0
            for step in range(hp.iteration_num_max):  # validated >= 1, so step and done are set
                action = select_action(qtable, state, actions, epsilon, rng)
                next_state, fired, done = run.step(action)
                actions = legal[next_state % nq]
                reward, gamma = fire if fired else sink if done else plain
                q_update(qtable, state, action, reward, gamma, next_state, mu)
                total += reward
                state = next_state
                if done:
                    break
            ep_stats = EpisodeStats(episode, total, step + 1, run.runtime.sweeps_completed, done)
            stats.append(ep_stats)
            if on_episode is not None:
                on_episode(ep_stats)
    except KeyboardInterrupt:
        interrupted = True

    return TrainResult(qtable, stats, interrupted)


class GreedyPolicy:
    """Deterministic greedy policy induced by a Q table: product id to action id.

    A snapshot: each stored row's greedy action is recorded at construction,
    so later writes to the table do not change it. Unseen states pick 0.
    """

    def __init__(self, qtable: QTable):
        self.actions = dict(qtable.greedy)

    def __call__(self, state) -> int:
        return self.actions.get(state, 0)


def average_window(window: int, episodes: int) -> int:
    """The moving-average window: window itself, or 30% of episodes when window <= 0."""
    return window if window > 0 else max(1, round(0.3 * episodes))


def moving_average(values, window: int) -> list[float]:
    """Trailing moving average over average_window(window, len(values))."""
    window = average_window(window, len(values))
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out
