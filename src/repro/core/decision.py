"""The parallel packing-SDP decision solver (Algorithm 3.1, ``decisionPSDP``).

Given constraint matrices ``A_1, ..., A_n`` (already scaled so the
interesting threshold is 1) and an accuracy parameter ``eps``, the solver
answers the ε-decision problem of Section 2.2: it returns either

* a **dual** vector ``x >= 0`` with ``||x||_1 >= 1 - O(eps)`` and
  ``sum_i x_i A_i <= I`` (certifying that the packing optimum is at least
  ``1 - O(eps)``), or
* a **primal** matrix ``Y >= 0`` with ``Tr[Y] = 1`` and ``A_i . Y`` large
  for every ``i`` (certifying that the packing optimum is at most ~1).

The implementation follows the paper's pseudocode exactly in *strict* mode:

* ``K = (1 + ln n) / eps``, ``alpha = eps / (K (1 + 10 eps))``,
  ``R = 32 ln(n) / (eps alpha)`` — the width-independent iteration bound of
  Theorem 3.1;
* ``x_i(0) = 1 / (n Tr[A_i])`` (Claim 3.3's initialisation);
* every iteration computes ``W = exp(Psi)`` with ``Psi = sum_i x_i A_i``,
  selects ``B = {i : W . A_i <= (1 + eps) Tr[W]}`` in parallel, and
  multiplies those coordinates by ``(1 + alpha)``.

Two engineering additions (both certificate-checked, i.e. they can only
make the solver stop earlier with a *verified* answer, never change what it
certifies):

* if the update set ``B`` is empty, the current density matrix ``P``
  already satisfies ``A_i . P > 1 + eps`` for every ``i`` and is therefore a
  valid primal certificate — the solver returns it immediately instead of
  idling until the iteration cap;
* in the default (non-strict) mode the solver periodically checks whether
  the current iterate already yields a primal or dual certificate
  (``certificate_check_every`` iterations) and exits early when it does.
  Experiment E9 quantifies how much this helps in practice.

Matrix-free iteration core
--------------------------
The solver's ``Psi`` lives behind a :class:`~repro.core.psi_state.PsiState`.
With the exact oracle (or any oracle that consumes the dense matrix) the
dense state reproduces the seed semantics bit-for-bit.  With the fast
oracle on exact-factor collections the *implicit* state is selected
automatically (``DecisionOptions.psi_state = "auto"``): the loop then
never materialises ``Psi`` — weight updates are ``O(n)`` vector updates,
history records and certificate checks estimate ``lambda_max`` by Lanczos
through the factored matvec at ``O((mR + nnz) * sweeps)`` with a
warm-started vector carried across iterations, primal tracking accumulates
the oracle's *dots vector* (the segment-summed ``||Pi exp(Psi/2) Q_i||_F^2``
estimates of ``constraints.dots(P(t))``) instead of ``(m, m)`` densities,
and ``primal_y`` is densified at most once, on demand, when a caller
actually reads it off the result.  ``benchmarks/bench_e14_matrixfree.py``
measures the end-to-end effect on large-``m`` low-rank/sparse instances.

The fast oracle's degenerate-sketch trace normalisation is likewise
structured (:mod:`repro.linalg.trace_estimation`): no ``(m, m)`` identity
passes through the Taylor polynomial on the default path, the oracle's
per-call work charge reflects the ``(m, R)`` factor-stack columns that
actually ran, and the estimator's counters are surfaced as
``result.metadata["trace_estimator"]`` next to the ``psi_state`` ones
(``benchmarks/bench_e15_trace.py`` measures the per-call effect).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.config import get_config
from repro.exceptions import BudgetExhaustedError, InvalidProblemError, SolverError
from repro.instrumentation.history import ConvergenceHistory, IterationRecord
from repro.linalg.expm import expm_normalized
from repro.operators.collection import ConstraintCollection
from repro.utils.random_utils import spawn_generators
from repro.parallel.backends import ExecutionBackend, SerialBackend
from repro.parallel.workdepth import WorkDepthTracker
from repro.core.checkpoint import SolverCheckpoint, capture_checkpoint, restore_checkpoint
from repro.core.dotexp import DotExpOracle, make_oracle, oracle_engine_metadata
from repro.core.problem import NormalizedPackingSDP
from repro.core.psi_state import make_psi_state
from repro.core.result import DecisionOutcome, DecisionResult, SolveStatus
from repro.robustness.supervisor import FastPathSupervisor
from repro.utils.random_utils import RandomState


@dataclass
class DecisionOptions:
    """Tuning knobs for :func:`decision_psdp`.

    Attributes
    ----------
    epsilon:
        Accuracy parameter ``eps`` of the decision problem.
    oracle:
        ``"exact"``, ``"fast"``, or an already-constructed oracle object
        implementing the :class:`~repro.core.dotexp.DotExpOracle` protocol.
    oracle_eps:
        Accuracy of the fast oracle (defaults to ``epsilon / 4``).
    strict:
        ``True`` runs the paper's pseudocode with no early certificate
        exits (the empty-update-set shortcut is kept because it returns a
        fully certified primal solution and avoids an idle spin).
    certificate_check_every:
        Cadence of early certificate checks in non-strict mode
        (``0`` disables them; ``None`` uses the package default).
    max_iterations:
        Override for the iteration cap ``R`` (``None`` uses the paper's
        formula).
    collect_history:
        Record an :class:`~repro.instrumentation.history.IterationRecord`
        per iteration.
    track_primal_average:
        Maintain the running average of the density matrices ``P(t)``
        needed for the primal return value.  ``None`` means "automatic":
        on for the exact oracle, off for the fast oracle (where the
        average would require an extra eigendecomposition per iteration).
        On the matrix-free path the average is tracked through the dots
        vector (the oracle's per-iteration trace-product estimates), never
        through ``(m, m)`` matrices; those estimates are *sketched*, so
        the implicit state reports them but never uses them for the early
        primal-certificate exit (a verified certificate needs the exact
        trace products the dense state computes) — a dense-state run with
        ``track_primal_average=True`` may therefore stop at a primal
        check the implicit state deliberately skips.
    backend:
        Execution backend for the batched per-constraint operations.  A
        *string* here is interpreted as an array-backend name and moved to
        ``array_backend`` (``DecisionOptions(backend="torch")`` reads
        naturally and cannot collide: execution backends are objects).
    array_backend:
        Array backend for the fast oracle's packed kernels — ``"numpy"``
        (default), ``"torch"``, ``"cupy"``, or an
        :class:`~repro.backend.ArrayBackend` instance.  Work–depth charges
        are shape-derived and identical across array backends; only the
        kernel arithmetic (and its rounding) moves.  Ignored when
        ``oracle`` is a pre-built oracle object (the object already fixed
        its backend at construction).
    rng:
        Randomness source (used only by the fast oracle's sketches).
    psi_state:
        Representation of the solver's weight matrix
        (:mod:`repro.core.psi_state`): ``"auto"`` (default) picks the
        matrix-free implicit state when the oracle declares
        ``needs_dense_psi = False`` and the collection's factors are
        exact, falling back to the dense seed
        semantics otherwise; ``"dense"``/``"implicit"`` force one (the
        latter raises on inexact-factor collections).
    supervise:
        Run the solve under a :class:`~repro.robustness.FastPathSupervisor`
        (default).  Numerical breakdowns in the fast-path kernels then
        demote one ladder rung and retry instead of raising, budgets are
        enforced, and ``result.status`` /
        ``result.metadata["recovery_events"]`` report what happened.
        ``False`` runs the raw pre-supervision call paths — the reference
        for the happy-path overhead benchmark
        (``benchmarks/bench_e16_robustness.py``); budgets are then ignored.
    wall_clock_budget:
        Optional seconds cap on the solve.  Checked at every iteration
        boundary: when it trips, the solver returns a best-effort result
        with ``status = SolveStatus.BUDGET_EXHAUSTED`` and the current
        (exactly rescaled, genuinely feasible) partial dual — it never
        raises and never reports an unverified certificate.
    iteration_budget:
        Optional iteration cap tighter than the paper's ``R``; same
        exhaustion contract as ``wall_clock_budget``.
    max_recoveries:
        Cap on fault-recovery demotions per solve (``None`` uses
        ``ReproConfig.max_recoveries``).  On exhaustion the solver returns
        ``status = SolveStatus.FAILED`` with whatever could still be
        verified exactly (``nan`` elsewhere).
    checkpoint_every:
        Capture a :class:`~repro.core.checkpoint.SolverCheckpoint` every
        this many iterations (``None``/unset disables periodic captures).
        The latest capture rides on a ``FAILED`` result's
        ``metadata["checkpoint"]`` so even a crashed solve is resumable;
        budget exhaustion always attaches a fresh capture regardless of
        this setting.
    heartbeat:
        Optional callback ``heartbeat(checkpoint, instance)`` invoked on
        every periodic capture (so it fires at the ``checkpoint_every``
        cadence; never without one).  ``instance`` is the per-instance rng
        index inside a fused :func:`~repro.core.batch.solve_many` group and
        ``None`` for a solo solve.  The executor uses this as the worker
        liveness/progress channel: each beat ships the freshest resumable
        state and re-dates the watchdog.  Exceptions raised by the callback
        propagate out of the solver — that is the cooperative-cancellation
        mechanism.  Excluded from options-identity comparisons (like
        ``rng``): it affects observability, never result bits.

    Budgets and the checkpoint cadence are validated at construction:
    negative ``wall_clock_budget``/``iteration_budget``/``max_recoveries``
    and non-positive ``checkpoint_every`` raise
    :class:`~repro.exceptions.InvalidProblemError` immediately instead of
    misbehaving iterations deep into a solve.
    """

    epsilon: float = 0.2
    oracle: str | DotExpOracle = "exact"
    oracle_eps: float | None = None
    strict: bool = False
    certificate_check_every: int | None = None
    max_iterations: int | None = None
    collect_history: bool = False
    track_primal_average: bool | None = None
    backend: ExecutionBackend | None = None
    array_backend: Any = "numpy"
    rng: RandomState = None
    psi_state: str = "auto"
    supervise: bool = True
    wall_clock_budget: float | None = None
    iteration_budget: int | None = None
    max_recoveries: int | None = None
    checkpoint_every: int | None = None
    heartbeat: Callable[[Any, Any], None] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            # DecisionOptions(backend="torch") selects the array backend;
            # execution backends are always objects, so a bare name cannot
            # be one.
            self.array_backend = self.backend
            self.backend = None
        if self.wall_clock_budget is not None and self.wall_clock_budget < 0:
            raise InvalidProblemError(
                f"wall_clock_budget must be >= 0 seconds, got {self.wall_clock_budget}"
            )
        if self.iteration_budget is not None and self.iteration_budget < 0:
            raise InvalidProblemError(
                f"iteration_budget must be >= 0 iterations, got {self.iteration_budget}"
            )
        if self.max_recoveries is not None and self.max_recoveries < 0:
            raise InvalidProblemError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise InvalidProblemError(
                f"checkpoint_every must be a positive iteration count, "
                f"got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class DecisionParameters:
    """The derived constants of Algorithm 3.1 for a given ``(n, eps)``."""

    n: int
    epsilon: float
    K: float
    alpha: float
    R: int

    @staticmethod
    def from_instance(n: int, epsilon: float) -> "DecisionParameters":
        """Compute ``K``, ``alpha`` and ``R`` exactly as defined in Algorithm 3.1."""
        if n < 1:
            raise InvalidProblemError(f"need at least one constraint, got n={n}")
        if not (0 < epsilon < 1):
            raise InvalidProblemError(f"epsilon must be in (0, 1), got {epsilon}")
        log_n = math.log(max(n, 2))
        K = (1.0 + log_n) / epsilon
        alpha = epsilon / (K * (1.0 + 10.0 * epsilon))
        R = int(math.ceil(32.0 * log_n / (epsilon * alpha)))
        return DecisionParameters(n=n, epsilon=epsilon, K=K, alpha=alpha, R=R)


def resolve_decision_options(
    epsilon: float | None,
    options: DecisionOptions | None,
    overrides: dict[str, Any],
) -> DecisionOptions:
    """Merge the ``(epsilon, options, **overrides)`` calling convention.

    Shared by :func:`decision_psdp`,
    :func:`repro.core.decision_phased.decision_psdp_phased` and
    :func:`repro.core.batch.solve_many` so every entry point resolves its
    options (including override validation and the no-mutation copy
    semantics) exactly alike.
    """
    opts = options or DecisionOptions()
    if overrides:
        valid = {f.name for f in opts.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(overrides) - valid
        if unknown:
            raise TypeError(f"unknown decision options: {sorted(unknown)}")
        opts = DecisionOptions(**{**opts.__dict__, **overrides})
    if epsilon is not None:
        # Copy before overriding: the caller's options object must not be
        # silently mutated across calls.
        opts = dataclasses.replace(opts, epsilon=float(epsilon))
    return opts


def _resolve_constraints(problem) -> ConstraintCollection:
    if isinstance(problem, NormalizedPackingSDP):
        return problem.constraints
    if isinstance(problem, ConstraintCollection):
        return problem
    return ConstraintCollection(problem)


def decision_psdp(
    problem: NormalizedPackingSDP | ConstraintCollection | list,
    epsilon: float | None = None,
    options: DecisionOptions | None = None,
    *,
    resume_from: "SolverCheckpoint | None" = None,
    **overrides: Any,
) -> DecisionResult:
    """Solve the ε-decision problem for a packing SDP (Algorithm 3.1).

    Parameters
    ----------
    problem:
        A :class:`~repro.core.problem.NormalizedPackingSDP`, a
        :class:`~repro.operators.ConstraintCollection`, or a plain list of
        PSD matrices.  The constraints are interpreted against the threshold
        1 (i.e. the question is whether the packing optimum is above or
        below 1).
    epsilon:
        Accuracy parameter; overrides the one in ``options``.
    options:
        A :class:`DecisionOptions` bundle; individual fields can also be
        overridden with keyword arguments (e.g. ``oracle="fast"``,
        ``strict=True``, ``collect_history=True``).
    resume_from:
        A :class:`~repro.core.checkpoint.SolverCheckpoint` captured by an
        earlier (interrupted) run of this solver on the *same instance with
        the same options*.  The solve continues from the checkpointed
        iteration bit-identically: an interrupt-at-``k``-then-resume run
        returns the same certified decision, dual witness and history as an
        uninterrupted run on the same seed.  Mismatched checkpoints raise
        :class:`~repro.exceptions.CheckpointError`.

    Returns
    -------
    DecisionResult
        The certified outcome together with both candidate solutions,
        iteration statistics, oracle counters and a work–depth report.

    Notes
    -----
    String oracles (``"exact"``/``"fast"``) are built by
    :func:`~repro.core.dotexp.make_oracle`.  To configure one further —
    e.g. a forced trace mode or a chunked Taylor apply — construct it
    explicitly and pass it as ``options.oracle``::

        oracle = FastDotExpOracle(constraints, eps=0.05, rng=0,
                                  trace_mode="identity")
        decision_psdp(constraints, epsilon=0.2, oracle=oracle)
    """
    opts = resolve_decision_options(epsilon, options, overrides)

    constraints = _resolve_constraints(problem)
    cfg = get_config()
    eps = float(opts.epsilon)
    params = DecisionParameters.from_instance(len(constraints), eps)
    n, m = len(constraints), constraints.dim

    traces = constraints.traces()
    if np.any(traces <= 0):
        raise InvalidProblemError(
            "every constraint matrix must have a positive trace (remove zero matrices)"
        )

    tracker = WorkDepthTracker()
    backend = opts.backend or SerialBackend(tracker=tracker)
    if backend.tracker is None:
        backend.tracker = tracker
    else:
        tracker = backend.tracker

    oracle: DotExpOracle
    if isinstance(opts.oracle, str):
        oracle = make_oracle(
            constraints,
            kind=opts.oracle,
            eps=opts.oracle_eps if opts.oracle_eps is not None else eps / 4.0,
            # The Lemma 3.2 bound (1 + 10 eps) K would be a valid kappa, but it
            # is very pessimistic early in the run; letting the fast oracle
            # estimate ||Psi||_2 per call keeps the Taylor degree proportional
            # to the *current* spectral norm.
            kappa_bound=None,
            rng=opts.rng,
            backend=backend,
            array_backend=opts.array_backend,
        )
        oracle_kind = opts.oracle
    else:
        oracle = opts.oracle
        oracle_kind = type(oracle).__name__

    track_primal = opts.track_primal_average
    if track_primal is None:
        track_primal = oracle_kind == "exact"

    check_every = opts.certificate_check_every
    if check_every is None:
        check_every = 0 if opts.strict else cfg.certificate_check_every
    max_iterations = opts.max_iterations if opts.max_iterations is not None else params.R

    history = ConvergenceHistory() if opts.collect_history else None
    log_depth = math.log2(max(n, 2)) + math.log2(max(m, 2))

    # Top-eigenvalue estimation (certificate checks, history, final dual
    # rescaling) lives on the PsiState: dense Lanczos on the maintained
    # matrix for the dense state, warm-started Lanczos through the factored
    # matvec for the implicit one.  The eigenvalue work charged below is
    # the *measured* sweep count returned by top_eigenvalue, not an
    # a-priori m^2 * maxiter constant.  The generator is spawned, not
    # shared: consuming the oracle's stream here would make sketch draws
    # depend on history/certificate cadence.
    eig_rng = spawn_generators(opts.rng, 1)[0]

    # --- initialisation (Claim 3.3): x_i(0) = 1 / (n Tr[A_i]) ------------------
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

    # Fault supervision (robustness subsystem): kernel-demotion ladders,
    # budgets, and the structured recovery log.  The supervisor owns the
    # mutable PsiState reference — the loop re-reads it after every
    # supervised call because an implicit-state matvec failure rebuilds the
    # state densely mid-run.  The primal-tracking branch choice (`implicit`)
    # stays frozen at its start-of-run value: the dots-vector accumulators
    # remain valid after a demotion, only lambda_max/densify follow the
    # demoted state.
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
    last_density: np.ndarray | None = None
    # Matrix-free primal tracking: the oracle's values vector *is* the
    # Theorem 4.1 estimate of the dots vector constraints.dots(P(t)) —
    # segment-summed || Pi exp(Psi/2) Q_i ||_F^2 over the factor stack —
    # so the running density average is tracked through its trace products
    # and an (m, m) density matrix is never formed during the run.
    dots_sum = np.zeros(n, dtype=np.float64) if implicit else None
    last_values: np.ndarray | None = None

    checkpoint_every = opts.checkpoint_every or 0
    latest_checkpoint: SolverCheckpoint | None = None

    def capture(iteration: int) -> SolverCheckpoint:
        return capture_checkpoint(
            solver="psdp",
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
            last_density=last_density,
            dots_sum=dots_sum,
            last_values=last_values,
        )

    def current_primal() -> np.ndarray | None:
        if primal_rounds > 0:
            return primal_sum / primal_rounds
        return last_density

    def build_result(
        outcome: DecisionOutcome,
        iterations: int,
        early: bool,
        dual_candidate: np.ndarray,
        primal_final: bool = False,
        status: SolveStatus | None = None,
    ) -> DecisionResult:
        nonlocal state
        # Always report a *feasible* dual candidate by rescaling with the
        # measured lambda_max: if lambda_max(sum_i x_i A_i) = lam > 0 then
        # x / lam is feasible with value ||x||_1 / lam.  Lemma 3.2 bounds lam
        # by (1 + 10 eps) K, so this is never worse than the paper's scaling,
        # and scaling *up* when lam < 1 only strengthens the certificate.
        # This holds for budget-exhausted partial duals too: x / lam is
        # exactly verified feasible, merely with a sub-target value — the
        # certificate is measured on the returned object, never extrapolated.
        try:
            if supervisor is not None:
                lam, eig_work = supervisor.lambda_max(final=True, iteration=iterations)
                state = supervisor.state
            else:
                lam, eig_work = state.lambda_max(final=True)
        except BudgetExhaustedError:
            # Even the exact eigvalsh rung failed (or recoveries ran out):
            # the dual side cannot be verified — report nan, never a guess.
            lam, eig_work = float("nan"), 0.0
            status = SolveStatus.FAILED
            if supervisor is not None:
                state = supervisor.state
        tracker.charge(eig_work, log_depth, label="dual-rescale")
        verified = bool(np.isfinite(lam))
        scale = lam if lam > 0 else 1.0
        dual_x = dual_candidate / scale
        dual_value = float(dual_x.sum()) if verified else float("nan")
        dual_lam = lam / scale if verified else float("nan")

        if implicit:
            # No (m, m) matrix exists; primal_y is attached as a deferred
            # build below when this outcome carries a primal certificate.
            primal_y = None
            if primal_final and last_values is not None:
                # The certificate is the *current* iterate's density; its
                # trace products are the oracle's last estimates.
                min_dot = float(last_values.min(initial=np.inf))
            elif primal_rounds > 0:
                min_dot = float((dots_sum / primal_rounds).min(initial=np.inf))
            else:
                min_dot = float("nan")
        else:
            primal_y = current_primal()
            if primal_y is not None:
                min_dot = float(constraints.dots(primal_y).min(initial=np.inf))
            else:
                min_dot = float("nan")

        if status is None:
            # Demotions occurred but the certificate was still exactly
            # verified: the run is DEGRADED, not failed — same guarantee,
            # slower rungs.
            status = (
                SolveStatus.DEGRADED
                if supervisor is not None and supervisor.recovery_events
                else SolveStatus.CERTIFIED
            )
        result = DecisionResult(
            outcome=outcome,
            dual_x=dual_x,
            primal_y=primal_y,
            dual_value=dual_value,
            primal_min_dot=min_dot,
            dual_lambda_max=dual_lam,
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
                "oracle": oracle_kind,
                "strict": opts.strict,
                "solve_status": status.value,
                # Partial-dual mass before rescaling: budget-exhaustion
                # tests assert this grows monotonically with the budget.
                "x_l1": float(dual_candidate.sum()),
                # Matrix-free discipline counters (snapshot at result build:
                # a deferred primal build afterwards is *meant* to densify).
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
            # A crashed solve is still resumable from the latest periodic
            # capture (budget exhaustion attaches a fresh one at its own
            # return site, overriding this).
            result.metadata["checkpoint"] = latest_checkpoint
        if implicit and primal_final:
            def build_primal() -> np.ndarray:
                # The one deferred densification + eigendecomposition of the
                # matrix-free path, run only when primal_y is actually read;
                # the exact trace products replace the sketched estimate.
                y = expm_normalized(state.densify())
                result.primal_min_dot = float(
                    constraints.dots(y).min(initial=np.inf)
                )
                return y

            result.primal_builder = build_primal
        return result

    # --- main loop (Algorithm 3.1) --------------------------------------------
    t = 0
    if resume_from is not None:
        # Reconstruction above followed the exact fresh-run order (so the
        # spawned rng streams match); now overlay the checkpointed state.
        state, resumed = restore_checkpoint(
            resume_from,
            solver="psdp",
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
        last_density = resumed.last_density
        dots_sum = resumed.dots_sum
        last_values = resumed.last_values
    while float(x.sum()) <= params.K and t < max_iterations:
        if supervisor is not None and supervisor.budget_exhausted(t) is not None:
            # Budgets never raise from the public entry point: return the
            # exactly-verified partial dual with an explicit status.  The
            # fresh capture makes the exhausted budget a continuation
            # point, not wasted work.
            checkpoint = capture(t)
            result = build_result(
                DecisionOutcome.DUAL, t, early=True, dual_candidate=x,
                status=SolveStatus.BUDGET_EXHAUSTED,
            )
            result.metadata["checkpoint"] = checkpoint
            return result
        t += 1

        if supervisor is not None:
            try:
                output = supervisor.oracle_call(iteration=t)
            except BudgetExhaustedError:
                return build_result(
                    DecisionOutcome.DUAL, t, early=True, dual_candidate=x,
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
            if track_primal:
                dots_sum += values
                primal_rounds += 1
        elif track_primal:
            last_density = expm_normalized(state.densify())
            primal_sum += last_density
            primal_rounds += 1

        # Line 5: B(t) = {i : W . A_i <= (1 + eps) Tr[W]}  <=>  P . A_i <= 1 + eps
        mask = values <= 1.0 + eps
        updated = int(mask.sum())
        tracker.charge(float(n), math.log2(max(n, 2)), label="select")

        if history is not None:
            if supervisor is not None:
                try:
                    lam_hist, _ = supervisor.lambda_max(iteration=t)
                except BudgetExhaustedError:
                    return build_result(
                        DecisionOutcome.DUAL, t, early=True, dual_candidate=x,
                        status=SolveStatus.FAILED,
                    )
                state = supervisor.state
            else:
                lam_hist, _ = state.lambda_max()
            history.append(
                IterationRecord(
                    iteration=t,
                    x_norm=float(x.sum()),
                    updated=updated,
                    min_value=float(values.min(initial=np.inf)),
                    max_value=float(values.max(initial=-np.inf)),
                    psi_lambda_max=lam_hist,
                    oracle_work=output.work,
                )
            )

        if updated == 0:
            # Every constraint already has A_i . P > 1 + eps: the density
            # matrix itself is a primal certificate (Tr P = 1).
            if implicit:
                return build_result(
                    DecisionOutcome.PRIMAL, t, early=True, dual_candidate=x,
                    primal_final=True,
                )
            density = last_density if last_density is not None else expm_normalized(state.densify())
            primal_sum = density.copy()
            primal_rounds = 1
            last_density = density
            return build_result(DecisionOutcome.PRIMAL, t, early=True, dual_candidate=x)

        # Line 6: multiply the selected coordinates by (1 + alpha).  The
        # dense state also maintains psi + weighted_sum(delta) (a single
        # GEMM over the active packed columns); the implicit state touches
        # only the weight vector.
        delta = np.where(mask, params.alpha * x, 0.0)
        update_work = state.add_delta(delta, mask)
        x = state.x
        tracker.charge(update_work, log_depth, label="update")

        # Early certificate checks (non-strict mode only).
        if check_every and t % check_every == 0:
            if supervisor is not None:
                try:
                    lam, eig_work = supervisor.lambda_max(iteration=t)
                except BudgetExhaustedError:
                    return build_result(
                        DecisionOutcome.DUAL, t, early=True, dual_candidate=x,
                        status=SolveStatus.FAILED,
                    )
                state = supervisor.state
            else:
                lam, eig_work = state.lambda_max()
            tracker.charge(eig_work, log_depth, label="certificate-check")
            if lam > 0 and float(x.sum()) / lam >= 1.0 - eps:
                return build_result(DecisionOutcome.DUAL, t, early=True, dual_candidate=x)
            primal_candidate = None if implicit else current_primal()
            if primal_candidate is not None:
                min_dot = float(constraints.dots(primal_candidate).min(initial=np.inf))
                if min_dot >= 1.0:
                    return build_result(DecisionOutcome.PRIMAL, t, early=True, dual_candidate=x)

        if checkpoint_every and t % checkpoint_every == 0:
            latest_checkpoint = capture(t)
            if opts.heartbeat is not None:
                opts.heartbeat(latest_checkpoint, None)

    if float(x.sum()) > params.K:
        # Lines 7-8: return a dual solution.  The paper rescales by
        # 1/((1+10eps) K); build_result instead rescales by the *measured*
        # lambda_max, which Lemma 3.2 bounds by (1+10eps) K, so the returned
        # value is at least the paper's 1 - 10 eps guarantee.
        return build_result(DecisionOutcome.DUAL, t, early=False, dual_candidate=x)

    if t >= max_iterations:
        # Line 9-10: the averaged density matrices form the primal solution
        # (final iterate's density on the matrix-free path, built lazily).
        if implicit:
            return build_result(
                DecisionOutcome.PRIMAL, t, early=False, dual_candidate=x,
                primal_final=True,
            )
        if primal_rounds == 0 and last_density is None:
            last_density = expm_normalized(state.densify())
        return build_result(DecisionOutcome.PRIMAL, t, early=False, dual_candidate=x)

    raise SolverError("decision solver exited its loop without a certificate")  # pragma: no cover
