"""Where the traced run hooks into ldba_synth, and the per-layer metrics.

Functions are wrapped at the name their caller looks up: ``cli`` imports
``train``, ``run_test``, ``build_explicit_product``, ``max_sat_probability``
and the spec loaders by name, and ``learner.train`` and the oracle look up
``select_action``, ``q_update``, ``mec_decompose``, ``_prob1_max`` and
``_prob0_max`` in their own modules. Per-step methods are patched on their
classes.
"""

from __future__ import annotations

from tracer import Tracer

# (metric name, unit); every name is printed by the traced run
LAYER_METRICS = (
    ("automaton.parse_s", "s"),
    ("automaton.step_calls", "count"),
    ("automaton.step_self_s", "s"),
    ("automaton.frontier_calls", "count"),
    ("automaton.frontier_self_s", "s"),
    ("automaton.fire_ratio", "ratio"),
    ("envs.parse_s", "s"),
    ("envs.step_calls", "count"),
    ("envs.step_self_s", "s"),
    ("envs.enumerate_model_s", "s"),
    ("product.step_calls", "count"),
    ("product.step_self_s", "s"),
    ("product.available_actions_calls", "count"),
    ("product.available_actions_self_s", "s"),
    ("product.reset_calls", "count"),
    ("learner.train_self_s", "s"),
    ("learner.select_action_calls", "count"),
    ("learner.select_action_self_s", "s"),
    ("learner.q_update_calls", "count"),
    ("learner.q_update_self_s", "s"),
    ("learner.policy_calls", "count"),
    ("learner.policy_self_s", "s"),
    ("learner.q_entries", "count"),
    ("learner.episodes", "count"),
    ("learner.sink_episodes", "count"),
    ("oracle.build_s", "s"),
    ("oracle.states", "count"),
    ("oracle.edges", "count"),
    ("oracle.mec_s", "s"),
    ("oracle.mecs", "count"),
    ("oracle.prob1_s", "s"),
    ("oracle.prob0_s", "s"),
    ("oracle.vi_s", "s"),
    ("oracle.vi_sweeps", "count"),
    ("oracle.undecided_states", "count"),
    ("evaluation.run_test_self_s", "s"),
    ("evaluation.rollouts", "count"),
    ("evaluation.rollout_steps", "count"),
    ("cli.save_model_s", "s"),
    ("cli.load_model_s", "s"),
    ("cli.oracle_reference_s", "s"),
    ("cli.write_outputs_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Probes:
    """Installs the wrappers of one traced cycle and reads them back."""

    def __init__(self, modules: dict, tracer: Tracer):
        self.tracer = tracer
        self.counts = {"fires": 0, "q_entries": 0, "episodes": 0, "sink_episodes": 0,
                       "rollouts": 0, "rollout_steps": 0, "states": 0, "edges": 0,
                       "mecs": 0, "vi_sweeps": 0, "undecided_states": 0}
        self._sure = 0
        self.modules = modules

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _on_frontier(self, args, fired):
        if fired:
            self.counts["fires"] += 1

    def _on_train(self, args, result):
        self._add("q_entries", len(result.q_table))
        self._add("episodes", len(result.stats))
        self._add("sink_episodes", sum(1 for ep in result.stats if ep.reached_sink))

    def _on_run_test(self, args, report):
        self._add("rollouts", len(report.outcomes))
        self._add("rollout_steps", sum(o.steps for o in report.outcomes))

    def _on_build(self, args, prod):
        self._add("states", prod.num_states())
        self._add("edges", sum(len(s) for row in prod.successors for s in row.values()))

    def _on_prob1(self, args, sure):
        self._sure = len(sure)

    def _on_prob0(self, args, never):
        self._add("undecided_states", args[0].num_states() - self._sure - len(never))

    def __enter__(self):
        m, t = self.modules, self.tracer
        cli, learner, product = m["cli"], m["learner"], m["product"]
        oracle, envs, automaton = m["oracle"], m["envs"], m["automaton"]
        t.patch(cli, "load_ldba_file", "automaton.parse")
        t.patch(cli, "load_env_file", "envs.parse")
        t.patch(automaton.LdbaRuntime, "step", "automaton.step")
        t.patch(automaton.LdbaRuntime, "advance_frontier", "automaton.frontier",
                self._on_frontier)
        t.patch(envs.GridEnv, "step", "envs.step")
        t.patch(envs.GridEnv, "enumerate_model", "envs.enumerate_model")
        t.patch(product.ProductRun, "step", "product.step")
        t.patch(product.ProductRun, "available_actions", "product.available_actions")
        t.patch(product.ProductRun, "reset", "product.reset")
        t.patch(cli, "train", "learner.train", self._on_train)
        t.patch(learner, "select_action", "learner.select_action")
        t.patch(learner, "q_update", "learner.q_update")
        t.patch(learner.GreedyPolicy, "__call__", "learner.policy")
        t.patch(cli, "run_test", "evaluation.run_test", self._on_run_test)
        t.patch(cli, "build_explicit_product", "oracle.build", self._on_build)
        t.patch(cli, "max_sat_probability", "oracle.solve",
                lambda args, res: self._add("vi_sweeps", res.sweeps))
        t.patch(oracle, "mec_decompose", "oracle.mec",
                lambda args, mecs: self._add("mecs", len(mecs)))
        t.patch(oracle, "_prob1_max", "oracle.prob1", self._on_prob1)
        t.patch(oracle, "_prob0_max", "oracle.prob0", self._on_prob0)
        for name in ("save_model", "load_model", "model_qtable", "_oracle_reference",
                     "write_train_stats", "write_moving_average", "write_test_results"):
            t.patch(cli, name, "cli." + name)
        return self

    def __exit__(self, *exc):
        self.tracer.unpatch()
        return False

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metric values of the traced cycle."""
        t, c = self.tracer, self.counts
        calls, total, self_s = t.calls, t.total, t.self_s
        frontier_calls = calls["automaton.frontier"]
        return {
            "automaton.parse_s": total["automaton.parse"],
            "automaton.step_calls": calls["automaton.step"],
            "automaton.step_self_s": self_s("automaton.step"),
            "automaton.frontier_calls": frontier_calls,
            "automaton.frontier_self_s": self_s("automaton.frontier"),
            "automaton.fire_ratio": c["fires"] / frontier_calls if frontier_calls else 0.0,
            "envs.parse_s": total["envs.parse"],
            "envs.step_calls": calls["envs.step"],
            "envs.step_self_s": self_s("envs.step"),
            "envs.enumerate_model_s": total["envs.enumerate_model"],
            "product.step_calls": calls["product.step"],
            "product.step_self_s": self_s("product.step"),
            "product.available_actions_calls": calls["product.available_actions"],
            "product.available_actions_self_s": self_s("product.available_actions"),
            "product.reset_calls": calls["product.reset"],
            "learner.train_self_s": self_s("learner.train"),
            "learner.select_action_calls": calls["learner.select_action"],
            "learner.select_action_self_s": self_s("learner.select_action"),
            "learner.q_update_calls": calls["learner.q_update"],
            "learner.q_update_self_s": self_s("learner.q_update"),
            "learner.policy_calls": calls["learner.policy"],
            "learner.policy_self_s": self_s("learner.policy"),
            "learner.q_entries": c["q_entries"],
            "learner.episodes": c["episodes"],
            "learner.sink_episodes": c["sink_episodes"],
            "oracle.build_s": self_s("oracle.build"),
            "oracle.states": c["states"],
            "oracle.edges": c["edges"],
            "oracle.mec_s": total["oracle.mec"],
            "oracle.mecs": c["mecs"],
            "oracle.prob1_s": total["oracle.prob1"],
            "oracle.prob0_s": total["oracle.prob0"],
            "oracle.vi_s": self_s("oracle.solve"),
            "oracle.vi_sweeps": c["vi_sweeps"],
            "oracle.undecided_states": c["undecided_states"],
            "evaluation.run_test_self_s": self_s("evaluation.run_test"),
            "evaluation.rollouts": c["rollouts"],
            "evaluation.rollout_steps": c["rollout_steps"],
            "cli.save_model_s": total["cli.save_model"],
            "cli.load_model_s": total["cli.load_model"] + total["cli.model_qtable"],
            "cli.oracle_reference_s": total["cli._oracle_reference"],
            "cli.write_outputs_s": (total["cli.write_train_stats"]
                                    + total["cli.write_moving_average"]
                                    + total["cli.write_test_results"]),
            "trace.overhead_ratio": overhead_ratio,
        }
