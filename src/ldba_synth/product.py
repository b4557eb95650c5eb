"""On-the-fly synchronization of a grid environment with an automaton.

A compiled product numbers cells, label classes, actions and product
states, so a step is a few list lookups. The learner compiles one per
training run and its Q table keeps it, so the tester rolls out on the
same ids; the oracle's build compiles its own. Label classes are
numbered per automaton on first sight, so every product of one
environment and automaton has the same ids.

Base actions move the agent and feed the new cell's label class to the
automaton; epsilon-actions jump the automaton, freeze the environment
and consume no randomness. A step returns the triple (next_state,
fired, done): the new product id, whether the step fired the accepting
frontier, and whether it hit the sink, which ends the episode and never
fires. It reports automaton events, not rewards; what a step pays is
the learner's to decide (``Hyperparams.payoffs``).
"""

from __future__ import annotations

from .automaton import SINK_STATE, LdbaRuntime

SINK = -1  # the oracle's one sink node, decoded as (SINK_CELL, -1); -1 % nq is the sink
SINK_CELL = (-1, -1)


class ProductError(ValueError):
    """Raised on illegal actions for the current product state."""


class CompiledProduct:
    """One environment x automaton pair on integer ids.

    Cells are numbered as ``env.cells`` and classed from ``env.cell_labels``,
    automaton states as in ``CompiledLdba``, and product state (cell, q)
    is ``cell * nq + q``. Action ids index ``actions[q]``: the base actions,
    then q's epsilon actions, whose automaton classes ``epsilon[q]`` holds
    (None for base actions). A run's base action reads ``env.moves``.
    """

    def __init__(self, env, spec):
        automaton = spec.compiled
        self.env, self.spec, self.automaton = env, spec, automaton
        self.nq = len(automaton.states)
        self.cell_class = [automaton.label_class(labels) for labels in env.cell_labels]
        self.actions = [env.actions + spec.epsilon_names(q) for q in automaton.states]
        self.legal = [range(len(names)) for names in self.actions]
        self.epsilon = [(None,) * len(env.actions) + moves for moves in automaton.epsilon]
        self.initial = self.encode(env.initial_state, spec.initial_state)

    def encode(self, cell, q) -> int:
        """The id of product state (cell, q); KeyError off the grid or the automaton."""
        return self.env.cell_id[cell] * self.nq + self.automaton.index[q]

    def decode(self, state: int) -> tuple:
        """The ((row, col), q) pair of a product id, q as the spec numbers it."""
        if state == SINK:
            return SINK_CELL, SINK_STATE
        cell, q = divmod(state, self.nq)
        return self.env.cells[cell], self.automaton.states[q]

    def action_names(self, state: int) -> tuple[str, ...]:
        return self.actions[state % self.nq]


class ProductRun:
    """A live trajectory on a compiled product: one agent cell, one automaton run."""

    def __init__(self, product: CompiledProduct, rng):
        env = product.env
        self.product, self.rng, self.runtime = product, rng, LdbaRuntime(product.spec)
        self._slip, self._random = env.slip_probability, rng.random
        self._getrandbits = rng.getrandbits
        self._nq, self._sink, self._cell_class = product.nq, product.nq - 1, product.cell_class
        self._legal, self._epsilon, self._moves = product.legal, product.epsilon, env.moves
        self.state = product.initial
        self.cell = product.initial // product.nq

    def reset(self) -> int:
        self.runtime.reset()
        self.state = self.product.initial
        self.cell = self.state // self._nq
        return self.state

    def available_actions(self, state=None) -> range:
        """The legal action ids: base actions first, then q's epsilon actions."""
        return self.product.legal[(state if state is not None else self.state) % self._nq]

    def step(self, action: int) -> tuple[int, bool, bool]:
        """Take an action id; returns (next_state, fired, done)."""
        runtime = self.runtime
        q = runtime.state
        if action not in self._legal[q]:
            raise ProductError(f"illegal action {action!r} for product state "
                               f"{self.product.decode(self.state)}")
        cls = self._epsilon[q][action]
        cell = self.cell
        if cls is None:
            outcomes = self._moves[cell][action]
            slip = self._slip
            if slip and self._random() < slip:
                if len(outcomes) > 1:  # a perpendicular cell or staying put
                    r = self._getrandbits(2)  # rng.randrange(3), draw for draw
                    while r == 3:
                        r = self._getrandbits(2)
                    cell = outcomes[1 + r]
            else:
                cell = outcomes[0]
            self.cell = cell
            cls = self._cell_class[cell]
        q = runtime.step(cls)
        next_state = self.state = cell * self._nq + q
        if runtime.advance_frontier(q):
            return next_state, True, False
        return next_state, False, q == self._sink
