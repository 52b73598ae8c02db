"""Systematic schedule exploration for the lockless logging protocol.

The reserve/log/commit algorithm (:mod:`repro.core.logger`) is lockless:
its correctness is a claim about *every* interleaving of a handful of
atomic operations, not about the ones a stress test happens to produce.
This package checks that claim mechanically, CHESS-style: the real
logger code runs with every shared-memory operation turned into an
explicit scheduling point (:class:`~repro.check.instrument.SteppedStore`),
a controlled scheduler enumerates thread interleavings — exhaustively up
to a preemption bound, or randomly with PCT-style priorities — and protocol
invariants are checked after every step.  When an invariant breaks, the
failing schedule is shrunk to a minimal counterexample and serialized as
a replayable JSON script.

Modules
-------
coop        deterministic cooperative runtime (one task at a time)
instrument  stepped lane store and stepped clock
harness     builds a checked system and runs one schedule
explore     exhaustive (bounded-DFS) and randomized (PCT) exploration
shrink      counterexample minimization
script      JSON schedule scripts (save / load / replay)
mutants     deliberately broken loggers the checker must catch
oracle      the word-at-a-time reference decoder the checker trusts

Entry point: ``repro-trace check`` (see :mod:`repro.cli`).
"""

from repro.check.explore import explore_exhaustive, explore_random
from repro.check.harness import CheckConfig, run_schedule
from repro.check.mutants import MUTANTS
from repro.check.script import ScheduleScript, load_script, save_script

__all__ = [
    "CheckConfig",
    "run_schedule",
    "explore_exhaustive",
    "explore_random",
    "ScheduleScript",
    "load_script",
    "save_script",
    "MUTANTS",
]
