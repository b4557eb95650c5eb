"""On-the-fly synchronization of a grid environment with an automaton.

Product states are ((row, col), q) pairs materialized only as visited;
no product table is ever built here. Base actions advance the
environment and feed the new cell's labels to the automaton;
epsilon-actions jump the automaton while freezing the environment and
consume no randomness. Each step applies the accepting-frontier rule to
the successor automaton state: a fired frontier pays positive_reward and
discounts the future by eta, every other transition pays neutral_reward
and is undiscounted. Episodes end exactly when the automaton hits the
sink, which is in no accepting set and so never fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .automaton import SINK_STATE, LdbaRuntime
from .envs import require_positive


@dataclass(frozen=True)
class RewardSpec:
    """Frontier reward shaping: fired steps pay positive_reward, discount eta."""

    eta: float
    positive_reward: float = 1.0
    neutral_reward: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly inside (0, 1)")
        require_positive(positive_reward=self.positive_reward)


class Transition(NamedTuple):
    state: tuple
    action: str
    next_state: tuple
    reward: float
    gamma: float
    done: bool
    fired: bool


class ProductError(ValueError):
    """Raised on illegal actions for the current product state."""


class ProductRun:
    """A live product trajectory over one environment and one automaton run."""

    def __init__(self, env, ldba_spec, reward: RewardSpec, rng):
        self.env = env
        self.runtime = LdbaRuntime(ldba_spec)
        self.reward = reward
        self.rng = rng
        self._actions = self.runtime.compiled.action_table(env.actions)
        self.state = (env.initial_state, self.runtime.spec.initial_state)

    def reset(self) -> tuple:
        s = self.env.reset()
        q = self.runtime.reset()
        self.state = (s, q)
        return self.state

    def available_actions(self, state=None) -> tuple[str, ...]:
        """Base actions first, then the automaton's epsilon actions for q."""
        return self._actions.legal[(state if state is not None else self.state)[1]]

    def step(self, action: str) -> Transition:
        state = self.state
        s, q = state
        try:
            epsilon_label = self._actions.moves[q][action]
        except (KeyError, TypeError):
            raise ProductError(
                f"illegal action {action!r} for product state {state}") from None
        runtime = self.runtime
        if epsilon_label is None:
            s = self.env.step(action, self.rng)
            q = runtime.step(self.env.state_label(s))
        else:
            q = runtime.step(epsilon_label)
        next_state = (s, q)
        self.state = next_state
        if runtime.advance_frontier(q):
            reward = self.reward
            return Transition(state, action, next_state, reward.positive_reward,
                              reward.eta, False, True)
        return Transition(state, action, next_state, self.reward.neutral_reward, 1.0,
                          q == SINK_STATE, False)
