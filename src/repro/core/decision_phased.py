"""Phase-based variant of the decision solver (ablation for experiment E9).

The SPAA 2012 conference version of the algorithm organised the iterations
into *phases*; the arXiv v3 analysis reproduced in this repository removes
the phases ("Our modified analysis is for a simplified pseudocode of the
algorithm from [PT12] that removes these phases.  However, the phase-based
version can be analyzed similarly.").  The exact conference pseudocode is
not included in the paper text we reproduce from, so this module implements
the natural *lazy-weight-update* phase structure that the phase mechanism
buys in practice and that experiment E9 ablates:

* a phase fixes the weight matrix ``W = exp(Psi)`` (one oracle call);
* within the phase, the qualifying set ``B = {i : W . A_i <= (1+eps) Tr W}``
  is updated repeatedly — the selected coordinates keep being multiplied by
  ``(1 + alpha)`` — until either the phase's ℓ1-growth budget
  ``(1 + eps)`` is exhausted or the set would change the spectrum too much;
* then ``W`` is recomputed and the next phase begins.

The variant performs (many) fewer matrix exponentials per unit of ℓ1
progress at the cost of using slightly stale penalties; every returned
certificate is still verified exactly like the phase-less solver's, so the
comparison in E9 is about iteration/oracle counts, not correctness.

Like the phase-less solver, the iteration core is matrix-free on the
fast-oracle path: ``Psi`` lives behind a
:class:`~repro.core.psi_state.PsiState`, and with the implicit state the
phase boundaries estimate the density's trace products from the oracle's
engine-applied factor stack (the values vector) and ``lambda_max`` by
warm-started Lanczos through the factored matvec — the per-phase
``O(m^3)`` ``expm_normalized`` of the dense path disappears, and
``primal_y`` is densified at most once, on demand, when read off the
result.  The fast oracle's structured trace estimator
(:mod:`repro.linalg.trace_estimation`) completes the picture: its
counters appear in ``result.metadata["trace_estimator"]`` and its
column-accurate work rides in the per-phase oracle charge, exactly as in
the phase-less solver.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.exceptions import BudgetExhaustedError, InvalidProblemError
from repro.instrumentation.history import ConvergenceHistory, IterationRecord
from repro.linalg.expm import expm_normalized
from repro.operators.collection import ConstraintCollection
from repro.parallel.backends import SerialBackend
from repro.parallel.workdepth import WorkDepthTracker
from repro.core.checkpoint import (
    SolverCheckpoint,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.core.decision import (
    DecisionOptions,
    DecisionParameters,
    _resolve_constraints,
    resolve_decision_options,
)
from repro.core.dotexp import make_oracle, oracle_engine_metadata
from repro.core.problem import NormalizedPackingSDP
from repro.core.psi_state import make_psi_state
from repro.core.result import DecisionOutcome, DecisionResult, SolveStatus
from repro.robustness.supervisor import FastPathSupervisor
from repro.utils.random_utils import spawn_generators


def decision_psdp_phased(
    problem: NormalizedPackingSDP | ConstraintCollection | list,
    epsilon: float | None = None,
    options: DecisionOptions | None = None,
    phase_growth: float | None = None,
    *,
    resume_from: "SolverCheckpoint | None" = None,
    **overrides: Any,
) -> DecisionResult:
    """Phase-based (lazy weight update) variant of :func:`decision_psdp`.

    Parameters
    ----------
    problem, epsilon, options, overrides:
        As in :func:`repro.core.decision.decision_psdp`.
    phase_growth:
        Multiplicative ℓ1-growth budget of a phase (default ``1 + eps``):
        a phase ends when ``||x||_1`` has grown by this factor since the
        last weight-matrix recomputation.
    resume_from:
        A :class:`~repro.core.checkpoint.SolverCheckpoint` captured by an
        earlier (interrupted) run of this solver on the same instance and
        options.  Mid-phase checkpoints carry the active qualifying mask
        and the phase's growth position, so the resumed run re-enters the
        interrupted phase exactly where it stopped — bit-identically to an
        uninterrupted run on the same seed.
    """
    opts = resolve_decision_options(epsilon, options, overrides)

    constraints = _resolve_constraints(problem)
    eps = float(opts.epsilon)
    params = DecisionParameters.from_instance(len(constraints), eps)
    n, m = len(constraints), constraints.dim
    growth = float(phase_growth) if phase_growth is not None else 1.0 + eps
    if growth <= 1.0:
        raise InvalidProblemError(f"phase_growth must be > 1, got {growth}")

    traces = constraints.traces()
    if np.any(traces <= 0):
        raise InvalidProblemError("every constraint matrix must have a positive trace")

    tracker = WorkDepthTracker()
    backend = opts.backend or SerialBackend(tracker=tracker)
    if backend.tracker is None:
        backend.tracker = tracker
    else:
        tracker = backend.tracker

    if isinstance(opts.oracle, str):
        oracle = make_oracle(
            constraints,
            kind=opts.oracle,
            eps=opts.oracle_eps if opts.oracle_eps is not None else eps / 4.0,
            kappa_bound=None,
            rng=opts.rng,
            backend=backend,
            array_backend=opts.array_backend,
        )
    else:
        # An already-constructed oracle object (the phase-less solver has
        # always honoured these; the phased variant used to silently fall
        # back to a fresh exact oracle).
        oracle = opts.oracle
    oracle_kind = opts.oracle if isinstance(opts.oracle, str) else type(oracle).__name__

    history = ConvergenceHistory() if opts.collect_history else None
    log_depth = math.log2(max(n, 2)) + math.log2(max(m, 2))
    max_iterations = opts.max_iterations if opts.max_iterations is not None else params.R

    # Same matrix-free strategy as the phase-less solver: the PsiState owns
    # the representation and the measured-cost eigenvalue estimation, with
    # a spawned (not shared) generator so eigenvalue draws never perturb
    # the oracle's sketch stream.
    eig_rng = spawn_generators(opts.rng, 1)[0]
    state = make_psi_state(
        constraints,
        1.0 / (n * traces),
        oracle=oracle,
        eig_rng=eig_rng,
        mode=opts.psi_state,
    )
    implicit = state.mode == "implicit"
    x = state.x
    tracker.charge(state.init_work, log_depth, label="init-psi")

    # Fault supervision: same contract as the phase-less solver — the
    # supervisor owns the mutable PsiState reference (an implicit-state
    # matvec failure rebuilds it densely mid-run), and the `implicit`
    # primal-tracking branch choice stays frozen at its start-of-run value.
    supervisor = (
        FastPathSupervisor(
            oracle=oracle,
            state=state,
            constraints=constraints,
            tracker=tracker,
            log_depth=log_depth,
            eig_rng=eig_rng,
            wall_clock_budget=opts.wall_clock_budget,
            iteration_budget=opts.iteration_budget,
            max_recoveries=opts.max_recoveries,
        )
        if opts.supervise
        else None
    )

    primal_sum = None if implicit else np.zeros((m, m), dtype=np.float64)
    primal_rounds = 0
    # Matrix-free primal tracking: on the implicit path the candidate is
    # the *final* iterate's density (built lazily), so the last oracle
    # values — the engine-applied factor-stack estimates of that density's
    # trace products — are carried as its dots vector and no (m, m)
    # density is formed at phase boundaries.
    last_values: np.ndarray | None = None

    checkpoint_every = opts.checkpoint_every or 0
    latest_checkpoint: SolverCheckpoint | None = None

    def capture(iteration: int, phase_state: dict) -> SolverCheckpoint:
        # ``phase_state`` carries the phase counter plus — for mid-phase
        # captures — the active qualifying mask, the stale oracle values,
        # and the phase's starting ℓ1 norm, so a resume can re-enter the
        # interrupted phase without a fresh oracle call.
        return capture_checkpoint(
            solver="phased",
            iteration=iteration,
            eps=eps,
            oracle_kind=oracle_kind,
            strict=opts.strict,
            n=n,
            m=m,
            oracle=oracle,
            state=state,
            supervisor=supervisor,
            eig_rng=eig_rng,
            tracker=tracker,
            history=history,
            primal_sum=primal_sum,
            primal_rounds=primal_rounds,
            last_values=last_values,
            phase=phase_state,
        )

    def current_primal() -> np.ndarray | None:
        if primal_rounds > 0:
            return primal_sum / primal_rounds
        return None

    def build_result(
        outcome: DecisionOutcome,
        iterations: int,
        phases: int,
        early: bool,
        status: SolveStatus | None = None,
    ) -> DecisionResult:
        nonlocal state
        # Same feasibility discipline as the phase-less solver: the dual is
        # rescaled by the *measured* lambda_max, so even a budget-exhausted
        # partial dual is exactly verified, never extrapolated.
        try:
            if supervisor is not None:
                lam, eig_work = supervisor.lambda_max(final=True, iteration=iterations)
                state = supervisor.state
            else:
                lam, eig_work = state.lambda_max(final=True)
        except BudgetExhaustedError:
            lam, eig_work = float("nan"), 0.0
            status = SolveStatus.FAILED
            if supervisor is not None:
                state = supervisor.state
        tracker.charge(eig_work, log_depth, label="dual-rescale")
        verified = bool(np.isfinite(lam))
        scale = lam if lam > 0 else 1.0
        dual_x = x / scale
        if implicit:
            # min_dot describes the same object primal_y's deferred build
            # returns — the final iterate's density — so it is estimated
            # from the last oracle values (and replaced by the exact trace
            # products of that very matrix when primal_y is read), never
            # from the phase average the implicit path does not keep.
            primal_y = None
            if last_values is not None:
                min_dot = float(last_values.min(initial=np.inf))
            else:
                min_dot = float("nan")
        else:
            primal_y = current_primal()
            if primal_y is None:
                primal_y = expm_normalized(state.densify())
            min_dot = float(constraints.dots(primal_y).min(initial=np.inf))
        if status is None:
            status = (
                SolveStatus.DEGRADED
                if supervisor is not None and supervisor.recovery_events
                else SolveStatus.CERTIFIED
            )
        result = DecisionResult(
            outcome=outcome,
            dual_x=dual_x,
            primal_y=primal_y,
            dual_value=float(dual_x.sum()) if verified else float("nan"),
            primal_min_dot=min_dot,
            dual_lambda_max=lam / scale if verified else float("nan"),
            iterations=iterations,
            max_iterations=max_iterations,
            epsilon=eps,
            early_exit=early,
            status=status,
            history=history,
            counters=oracle.counters,
            work_depth=tracker.report(),
            metadata={
                "K": params.K,
                "alpha": params.alpha,
                "R": params.R,
                "phases": phases,
                "phase_growth": growth,
                "variant": "phased",
                "solve_status": status.value,
                "x_l1": float(x.sum()),
                # Matrix-free discipline counters (snapshot at result build).
                "psi_state": state.stats(),
                # Rank-adaptive Taylor-engine counters (fast oracle only).
                **oracle_engine_metadata(oracle),
                **(
                    {
                        "recovery_events": supervisor.event_dicts(),
                        "supervisor": supervisor.stats(),
                    }
                    if supervisor is not None
                    else {}
                ),
                **opts.metadata,
            },
        )
        if result.status is SolveStatus.FAILED and latest_checkpoint is not None:
            # A failed solve (budget blown inside a recovery, crash-style
            # fault) still surfaces the most recent periodic checkpoint so
            # the caller can resume instead of restarting.
            result.metadata["checkpoint"] = latest_checkpoint
        if implicit:
            # The phased solver always reports a primal candidate; on the
            # matrix-free path it is the final iterate's density, built at
            # most once, on demand, when primal_y is actually read.
            def build_primal() -> np.ndarray:
                y = expm_normalized(state.densify())
                result.primal_min_dot = float(
                    constraints.dots(y).min(initial=np.inf)
                )
                return y

            result.primal_builder = build_primal
        return result

    t = 0
    phases = 0
    resume_phase: dict | None = None
    if resume_from is not None:
        # Reconstruction above followed the exact fresh-run order (so the
        # spawned rng streams match); now overlay the checkpointed state.
        state, resumed = restore_checkpoint(
            resume_from,
            solver="phased",
            eps=eps,
            oracle_kind=oracle_kind,
            strict=opts.strict,
            n=n,
            m=m,
            constraints=constraints,
            oracle=oracle,
            state=state,
            supervisor=supervisor,
            eig_rng=eig_rng,
            tracker=tracker,
            history=history,
        )
        x = state.x
        t = resumed.iteration
        primal_sum = resumed.primal_sum
        primal_rounds = resumed.primal_rounds
        last_values = resumed.last_values
        if resumed.phase is not None:
            phases = int(resumed.phase["phases"])
            if resumed.phase.get("mask") is not None:
                # Mid-phase checkpoint: the first outer pass below must
                # re-enter the interrupted phase with the stale mask and
                # values rather than recompute the weight matrix.
                resume_phase = resumed.phase
    while float(x.sum()) <= params.K and t < max_iterations:
        if resume_phase is not None:
            # Re-enter the interrupted phase: no phase increment, no
            # oracle call — the qualifying set was fixed before the
            # interruption and stays fixed until this phase's ℓ1-growth
            # budget is spent, exactly as in the uninterrupted run.  The
            # per-inner-iteration budget check below still runs first, so
            # resuming with an already-exhausted budget re-checkpoints
            # mid-phase instead of losing the phase position.
            mask = np.asarray(resume_phase["mask"], dtype=bool)
            values = np.asarray(resume_phase["values"], dtype=np.float64)
            phase_start_norm = float(resume_phase["phase_start_norm"])
            resume_phase = None
        else:
            if supervisor is not None and supervisor.budget_exhausted(t) is not None:
                checkpoint = capture(t, {"phases": phases, "mask": None})
                result = build_result(
                    DecisionOutcome.DUAL, t, phases, early=True,
                    status=SolveStatus.BUDGET_EXHAUSTED,
                )
                result.metadata["checkpoint"] = checkpoint
                return result
            phases += 1
            if supervisor is not None:
                try:
                    output = supervisor.oracle_call(iteration=t)
                except BudgetExhaustedError:
                    return build_result(
                        DecisionOutcome.DUAL, t, phases, early=True,
                        status=SolveStatus.FAILED,
                    )
                state = supervisor.state
                x = state.x
            else:
                output = oracle(state.oracle_psi(), x)
            values = np.asarray(output.values, dtype=np.float64)
            tracker.charge(output.work, log_depth, label="oracle")

            if implicit:
                last_values = values
            else:
                density = expm_normalized(state.densify())
                primal_sum += density
                primal_rounds += 1

            mask = values <= 1.0 + eps
            if not mask.any():
                if implicit:
                    # The certificate is the current density; min_dot reports
                    # its oracle estimates until primal_y's deferred build
                    # replaces them with the exact trace products.
                    return build_result(DecisionOutcome.PRIMAL, t, phases, early=True)
                primal_sum = density.copy()
                primal_rounds = 1
                return build_result(DecisionOutcome.PRIMAL, t, phases, early=True)

            phase_start_norm = float(x.sum())
        # Inner loop: reuse the stale qualifying set until the phase budget
        # is spent or the loop conditions trip.  Solve budgets are checked
        # per inner iteration, not just per phase — a long phase must not
        # overshoot a wall-clock budget.
        budget_hit = False
        while (
            float(x.sum()) <= params.K
            and t < max_iterations
            and float(x.sum()) < growth * phase_start_norm
        ):
            if supervisor is not None and supervisor.budget_exhausted(t) is not None:
                budget_hit = True
                break
            t += 1
            delta = np.where(mask, params.alpha * x, 0.0)
            # The dense state also maintains psi + weighted_sum(delta)
            # (charging only the touched share of the packed factor
            # columns, as the phase-less solver does); the implicit state
            # touches only the weight vector.
            update_work = state.add_delta(delta, mask)
            x = state.x
            tracker.charge(update_work, log_depth, label="update")
            if history is not None:
                history.append(
                    IterationRecord(
                        iteration=t,
                        x_norm=float(x.sum()),
                        updated=int(mask.sum()),
                        min_value=float(values.min(initial=np.nan)),
                        max_value=float(values.max(initial=np.nan)),
                        oracle_work=0.0,
                    )
                )
            if checkpoint_every and t % checkpoint_every == 0:
                latest_checkpoint = capture(
                    t,
                    {
                        "phases": phases,
                        "mask": mask,
                        "phase_start_norm": phase_start_norm,
                        "values": values,
                    },
                )
                if opts.heartbeat is not None:
                    opts.heartbeat(latest_checkpoint, None)

        if budget_hit:
            # Mid-phase continuation point: the fresh capture carries the
            # active mask so the resume skips the weight-matrix recompute.
            checkpoint = capture(
                t,
                {
                    "phases": phases,
                    "mask": mask,
                    "phase_start_norm": phase_start_norm,
                    "values": values,
                },
            )
            result = build_result(
                DecisionOutcome.DUAL, t, phases, early=True,
                status=SolveStatus.BUDGET_EXHAUSTED,
            )
            result.metadata["checkpoint"] = checkpoint
            return result

        # Optional early dual certificate at phase boundaries (mirrors the
        # phase-less solver's non-strict behaviour).  With the implicit
        # state this runs through the factored matvec — the phase boundary
        # never materialises Psi or a density matrix.
        if not opts.strict:
            if supervisor is not None:
                try:
                    lam, eig_work = supervisor.lambda_max(iteration=t)
                except BudgetExhaustedError:
                    return build_result(
                        DecisionOutcome.DUAL, t, phases, early=True,
                        status=SolveStatus.FAILED,
                    )
                state = supervisor.state
            else:
                lam, eig_work = state.lambda_max()
            tracker.charge(eig_work, log_depth, label="certificate-check")
            if lam > 0 and float(x.sum()) / lam >= 1.0 - eps:
                return build_result(DecisionOutcome.DUAL, t, phases, early=True)

    if float(x.sum()) > params.K:
        return build_result(DecisionOutcome.DUAL, t, phases, early=False)
    return build_result(DecisionOutcome.PRIMAL, t, phases, early=False)
