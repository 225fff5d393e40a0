"""Shared driver for simulator-backed anytime phase generators.

The three MaxIS/line-graph anytime runners all follow the same shape:
drive :meth:`~repro.congest.SynchronousNetwork.run_stepwise`, fold the
``newly_halted`` nodes of each :class:`~repro.congest.StepSnapshot`
into an incrementally maintained partial solution, and re-emit
``(rounds, solution, objective, final, state)`` tuples where ``state``
is the algorithm's resume payload on state-carrying snapshots.  This
module keeps that loop — and with it the capture-protocol tuple shape
— in exactly one place, so a change to the resume payload contract
cannot silently miss one of the runners.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple


def stepper_snapshots(
    stepper,
    fold: Callable[[tuple], Tuple[frozenset, int]],
    make_state: Callable[[int, int, dict], Optional[dict]],
    rounds_offset: int = 0,
):
    """Yield phase-snapshot tuples from a ``run_stepwise`` generator;
    return its :class:`~repro.congest.RunResult`.

    ``fold(newly_halted)`` absorbs the nodes that halted since the last
    snapshot into the caller's partial solution and returns the current
    ``(solution, objective)`` pair (solution as a frozenset).
    ``make_state(rounds, objective, sim_state)`` wraps the simulator's
    captured execution state into the algorithm's resume payload; it is
    only called for snapshots that carry one (the final snapshot of a
    capturing run).  ``rounds_offset`` shifts simulator rounds onto the
    algorithm's accounted scale (Algorithm 3 charges its coloring black
    box up front).

    A stepper started with ``checkpoint_every=None`` yields nothing;
    the winners are then folded off the run's final outputs in one
    pass.  That is the fast-drain form the legacy entry points use: the
    same result with no per-phase bookkeeping paid.
    """

    snapshotted = False
    while True:
        try:
            snapshot = next(stepper)
        except StopIteration as stop:
            result = stop.value
            if not snapshotted:
                fold(result.outputs.items())
            return result
        snapshotted = True
        solution, objective = fold(snapshot.newly_halted)
        rounds = rounds_offset + snapshot.rounds
        state = None
        if snapshot.state is not None:
            state = make_state(rounds, objective, snapshot.state)
        yield rounds, solution, objective, snapshot.final, state


__all__ = ["stepper_snapshots"]
