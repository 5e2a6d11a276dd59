"""The exponential-dot-product oracle (Section 4, Theorem 4.1).

Each iteration of the decision solver needs the vector of normalized trace
products ``(exp(Psi) . A_i) / Tr[exp(Psi)]`` for every constraint.  Two
oracles are provided — one fast path and one reference:

* :class:`ExactDotExpOracle` — one symmetric eigendecomposition of ``Psi``
  per call, then ``n`` trace products.  Cost ``O(m^3 + n m^2)`` work;
  this is the reference used for correctness.
* :class:`FastDotExpOracle` — the Theorem 4.1 algorithm ``bigDotExp``:
  writes ``exp(Phi) . A_i = || exp(Phi/2) Q_i ||_F^2`` for factorized
  constraints ``A_i = Q_i Q_i^T``, approximates ``exp(Phi/2)`` with the
  truncated Taylor polynomial of Lemma 4.2, and sketches the left factor
  with a Johnson–Lindenstrauss Gaussian matrix so that only
  ``O(eps^{-2} log m)`` rows ever pass through the polynomial.  Work is
  nearly linear in ``nnz(Phi) + q`` per call.

The standalone function :func:`big_dot_exp` exposes the Theorem 4.1
primitive directly (given ``Phi``, a norm bound ``kappa``, and the factors),
which is what the E3/E8 benchmarks exercise.

Packed factors
--------------
The factors are always handled as one
:class:`repro.operators.packed.PackedGramFactors` stack (a plain sequence
passed to :func:`big_dot_exp` is packed once, at the boundary).  The
estimate pass ``|| (Pi exp(Phi/2)) Q_i ||_F^2`` for *all* ``n`` constraints
is then one ``(d, m) x (m, R)`` GEMM followed by a segment sum over the
column blocks, and the ``Psi``-matvec is ``Q (w ∘ (Q^T v))``.

Rank-adaptive Taylor engine
---------------------------
The Taylor apply — pushing the sketch block through the Lemma 4.2
polynomial — dominates the oracle, especially in the degenerate-sketch
regime (``m ≲ 1000`` at tight eps, where the JL dimension reaches ``m``).
:class:`FastDotExpOracle` evaluates it through kernels from the packed
view's cached :class:`~repro.linalg.taylor_gram.TaylorEngine`, whose
representation is picked per factor stack by
:func:`~repro.linalg.taylor_gram.select_taylor_mode`: the ``R x R``
Gram-space recurrence when ``2R <= 1.1 m`` (per-term cost ``R^2 s``), a
one-time densification of ``Psi`` (``m^2 s``), a sparse-CSR ``Psi``
accumulated with a reusable symbolic pattern (``nnz(Psi) s``), or the
factor recurrence (``2 nnz(Q) s``).  The engine maintains the
weight-dependent state (the Gram matrix ``G``, the CSR values, the
densified ``Psi``, the scaled stack) across oracle calls by updating only
the weight coordinates the solver actually changed, charging the backend
work proportional to the active columns.  Every representation evaluates
the identical polynomial.  Work–depth charges are
*representation-invariant*: the model bills the factored Corollary 1.2
costs (the paper algorithm's work) no matter which kernel representation
executes.  The Gram mode performs strictly less arithmetic than the billed
factor recurrence; the sparse-``Psi`` and throughput-driven densified
modes may perform *more* hardware madds than the model bills — by at most
the policy's :data:`~repro.linalg.taylor_gram.SPARSE_GEMM_DISCOUNT`
factor — whenever that is measurably faster in wall clock.

The recovery ladder of :class:`~repro.robustness.supervisor.FastPathSupervisor`
can put the oracle on its bottom rung, ``"reference"``: the per-term
:func:`~repro.linalg.taylor.taylor_expm_apply` recurrence through
:meth:`~repro.operators.packed.PackedGramFactors.matvec_fn`, with the
structured trace estimator disengaged.  Only the supervisor selects it.

``big_dot_exp`` accepts a kernel directly as ``phi``; matrix-valued ``phi``
is routed through a kernel automatically, while matvec-callable ``phi``
keeps the per-term reference recurrence.

Structured trace estimation
---------------------------
At tight ``eps`` the JL dimension reaches ``m`` (the default for every
``m`` below several thousand) and the sketch degenerates to the identity.
The kernel path then reads the estimates from the polynomial applied to
the ``(m, R)`` factor stack itself (mathematically identical — the
identity "sketch" is a no-op) and the trace from a structured
:class:`~repro.linalg.trace_estimation.TraceEstimator`: the exact
``R x R`` Gram-spectrum evaluation when ``2R`` is within the hysteresis
margin of ``m``, the exact deflated block-Krylov projection of the
already-transformed factor block while ``R`` stays meaningfully below
``m``, a certified Hutchinson sampler on request, and the identity push
where ``R ~ m`` makes it genuinely optimal.  The
``identity_taylor_applies`` counter records every ``(m, m)`` identity that
does pass through the polynomial; the structured paths keep it at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import InvalidProblemError
from repro.instrumentation.counters import OracleCounters
from repro.linalg.expm import expm_normalized
from repro.linalg.norms import spectral_norm_power
from repro.linalg.sketching import gaussian_sketch, jl_dimension
from repro.linalg.taylor import taylor_degree, taylor_expm_apply
from repro.linalg.taylor_blocked import BlockedTaylorKernel
from repro.linalg.taylor_gram import GramTaylorKernel, TaylorEngine
from repro.linalg.trace_estimation import TraceEstimator
from repro.operators.collection import ConstraintCollection
from repro.operators.packed import PackedGramFactors, segment_sums
from repro.backend import get_array_backend
from repro.parallel.backends import ExecutionBackend
from repro.utils.random_utils import RandomState, as_generator


#: Mass of the fresh random direction blended into the warm-started power
#: iteration vector each call.  A pure warm start can lock onto a stale
#: eigendirection — if the solver's weight updates rotate ``Psi``'s dominant
#: eigenvector away from the previous one, the Rayleigh-quotient stopping
#: rule fires while the new dominant component (overlap ~machine noise) is
#: still growing, underestimating ``||Psi||`` and hence the Lemma 4.2
#: degree.  Mixing in a fresh Gaussian restores the random start's
#: ``Omega(1/sqrt(m))`` overlap with *every* eigendirection at the price of
#: a few extra iterations when the direction is unchanged.
NORM_RESTART_MIX = 0.05


@dataclass
class OracleOutput:
    """Result of one oracle call.

    Attributes
    ----------
    values:
        The vector ``(exp(Psi) . A_i) / Tr[exp(Psi)]`` (length ``n``).
    trace:
        The (possibly approximate, possibly rescaled) trace ``Tr[exp(Psi)]``
        used for the normalization.  For the exact oracle this is reported
        as 1.0 because the normalized density matrix is formed directly.
    work:
        Model work units charged for this call.
    """

    values: np.ndarray
    trace: float
    work: float


class DotExpOracle(Protocol):
    """Protocol for per-iteration oracles used by the decision solver.

    The solver supplies its weight matrix ``psi`` and the dual iterate
    ``x`` that generated it (``psi = sum_i x_i A_i``).  The exact oracle
    consumes ``psi`` directly; the fast (Theorem 4.1) oracle rebuilds the
    same operator from ``x`` through the constraint factors so it never
    touches a dense ``m x m`` matrix — it accepts ``psi=None``, and
    declares that through ``needs_dense_psi = False`` so the solver's
    matrix-free :class:`~repro.core.psi_state.ImplicitPsiState` can skip
    maintaining (or ever building) the dense matrix.  Oracles without the
    attribute are assumed to need ``psi`` (the solver then keeps the dense
    seed path).  When both arguments are given they must describe the same
    solver state.
    """

    counters: OracleCounters
    #: Whether the oracle consumes the dense ``psi`` argument.  ``False``
    #: lets the decision solvers run matrix-free and pass ``psi=None``.
    needs_dense_psi: bool

    def __call__(
        self, psi: np.ndarray | None, x: np.ndarray
    ) -> OracleOutput:  # pragma: no cover
        ...


def big_dot_exp(
    phi,
    factors: Sequence[np.ndarray | sp.spmatrix] | PackedGramFactors,
    kappa: float | None = None,
    eps: float = 0.1,
    rng: RandomState = None,
    sketch_constant: float = 8.0,
    use_sketch: bool = True,
    counters: OracleCounters | None = None,
    dim: int | None = None,
    return_trace: bool = False,
    trace_estimator=None,
) -> np.ndarray | tuple[np.ndarray, float]:
    """Approximate all ``exp(phi) . (Q_i Q_i^T)`` (Theorem 4.1's ``bigDotExp``).

    Parameters
    ----------
    phi:
        Symmetric PSD matrix to exponentiate (dense or sparse), a matvec
        callable ``v -> phi @ v`` (in which case ``dim`` is required and the
        matrix is never materialised — the setting of Corollary 1.2 where
        ``Psi = sum_i x_i Q_i Q_i^T`` is applied through the factors), or a
        Taylor kernel over ``phi`` — a
        :class:`~repro.linalg.taylor_blocked.BlockedTaylorKernel` or a
        :class:`~repro.linalg.taylor_gram.GramTaylorKernel`, whichever the
        rank-adaptive engine selected.
        Matrix inputs are routed through a blocked kernel automatically;
        callables keep the per-term reference recurrence.
    factors:
        The Gram factors ``Q_i`` of the constraint matrices, each of shape
        ``(m, r_i)`` — either a
        :class:`~repro.operators.packed.PackedGramFactors` view or a plain
        sequence, which is packed into one.
    kappa:
        Upper bound on ``max(1, ||phi||_2)``; estimated by power iteration
        when omitted.
    eps:
        Relative accuracy of the returned approximations.  Half the budget
        goes to the Taylor truncation (Lemma 4.2) and half to the JL sketch.
    rng:
        Randomness source for the sketch.
    sketch_constant:
        Multiplier in the JL dimension rule (exposed for experiment E8).
    use_sketch:
        When ``False`` the JL step is skipped and the polynomial is applied
        to the factors directly (still avoids the eigendecomposition); used
        to separate the two error sources in tests and E3.
    counters:
        Optional operation counters to update.
    return_trace:
        When ``True`` the estimate of ``Tr[exp(phi)] = exp(phi) . I`` is
        returned alongside the values.  With a genuinely reducing sketch
        this is read directly off the transformed sketch block
        (``|| Pi exp(phi/2) ||_F^2``) at no extra cost.  In the
        degenerate-sketch regime (JL dimension at least ``dim``) and on
        the ``use_sketch=False`` path, a structured ``trace_estimator``
        (when provided) supplies it without any ``(m, m)`` identity ever
        entering the polynomial; without one, the identity block is pushed
        through the polynomial (counted under the
        ``identity_taylor_applies`` counter).
    trace_estimator:
        Optional :class:`~repro.linalg.trace_estimation.TraceEstimator`
        (already :meth:`~repro.linalg.trace_estimation.TraceEstimator.bind`-ed
        to the weights that generated ``phi``).  Engaged only on the kernel
        path where the trace would otherwise require a full-identity Taylor
        apply — the degenerate-sketch regime and ``use_sketch=False``; the
        Theorem 4.1 estimates are then read from the polynomial applied to
        the factor stack itself (an ``(m, R)`` block — mathematically
        identical, since the identity "sketch" is a no-op) and the trace
        comes from the estimator's exact Gram-spectrum / deflated
        projection or its certified Hutchinson sampler.

    Returns
    -------
    numpy.ndarray or (numpy.ndarray, float)
        Vector of approximations to ``exp(phi) . Q_i Q_i^T``, plus the trace
        estimate when ``return_trace`` is set.
    """
    if eps <= 0 or eps >= 1:
        raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
    packed = factors if isinstance(factors, PackedGramFactors) else PackedGramFactors(factors)
    kernel = phi if isinstance(phi, (BlockedTaylorKernel, GramTaylorKernel)) else None
    if kernel is None and callable(phi):
        if dim is None:
            raise InvalidProblemError("dim is required when phi is a matvec callable")
        matvec = phi
    else:
        if kernel is None:
            # Matrix input: run the fused blocked recurrence (same
            # polynomial, fewer per-term passes).
            kernel = BlockedTaylorKernel.from_matrix(phi)
        dim = kernel.dim
        matvec = kernel.matvec

    if kappa is None:
        kappa = max(1.0, spectral_norm_power(matvec, dim=dim, rng=rng) * 1.05)
    kappa = max(1.0, float(kappa))

    eps_taylor = eps / 2.0
    eps_sketch = eps / 2.0
    degree = taylor_degree(kappa / 2.0, eps_taylor)

    def half_exp(block: np.ndarray) -> np.ndarray:
        """``p(phi/2) @ block`` for the Lemma 4.2 polynomial ``p``."""
        if kernel is not None:
            return kernel.apply(block, degree, scale=0.5)
        return taylor_expm_apply(lambda b: 0.5 * phi(b), block, degree)

    if counters is not None:
        counters.record_call()

    if use_sketch:
        # The JL dimension rule can exceed the ambient dimension for small m
        # or very small eps; sketching is then pointless (and noisier), so
        # fall back to the identity "sketch", which makes the left factor
        # exact and leaves only the Taylor truncation error.
        sketch_dim = min(jl_dimension(dim, eps_sketch, constant=sketch_constant), dim)
        if (
            sketch_dim >= dim
            and return_trace
            and kernel is not None
            and trace_estimator is not None
            and trace_estimator.structured
        ):
            # Degenerate-sketch regime with a structured trace estimator:
            # the identity "sketch" is a mathematical no-op (the left
            # factor is exact), so this call is exactly the
            # ``use_sketch=False`` path below — the Theorem 4.1 estimates
            # read from the polynomial applied to the (m, R) factor stack,
            # the trace from the estimator, no full-identity Taylor apply.
            use_sketch = False
        elif sketch_dim >= dim:
            sketch = np.eye(dim)
            if counters is not None:
                # The (m, m) identity is about to pass through the Taylor
                # polynomial — the counter the structured estimator's
                # regression tests assert stays at zero on its grids.
                counters.add("identity_taylor_applies")
        else:
            sketch = gaussian_sketch(sketch_dim, dim, rng=as_generator(rng))

    if use_sketch:
        # Rows of (Pi exp(phi/2)) = (exp(phi/2) Pi^T)^T because phi is symmetric.
        transformed = half_exp(sketch.T).T
        results = packed.estimates_from_transform(transformed)
        if counters is not None:
            counters.matvecs += sketch_dim * (degree - 1)
            # One GEMM covers every constraint, but the count keeps the
            # per-constraint unit (the aggregate nonzeros touched).
            counters.factor_passes += len(packed) + (1 if return_trace else 0)
            counters.add("packed_estimate_gemms")
        if return_trace:
            # exp(phi) . I estimated from the already-computed block:
            # || Pi exp(phi/2) I ||_F^2 = || transformed ||_F^2.
            return results, float(np.sum(transformed * transformed))
        return results

    transformed = half_exp(packed.dense_columns())
    col_vals = np.einsum("ij,ij->j", transformed, transformed)
    results = segment_sums(col_vals, packed.offsets)
    if counters is not None:
        counters.matvecs += packed.total_rank * (degree - 1)
        counters.factor_passes += len(packed)
        counters.add("packed_estimate_gemms")
    if not return_trace:
        return results
    if kernel is not None and trace_estimator is not None and trace_estimator.structured:
        # `transformed` is already the polynomial applied to the factor
        # stack — exactly the block the deflated estimator projects, so the
        # structured trace costs no extra apply.
        estimate = trace_estimator.estimate(
            kernel, degree, scale=0.5, transformed_factors=transformed
        )
        if counters is not None:
            counters.matvecs += estimate.probes * (degree - 1)
            counters.add("structured_trace_estimates")
            if estimate.mode == "identity":
                # Probe budget exhausted: the estimator ran the exact
                # identity push, so charge its columns too.
                counters.matvecs += dim * (degree - 1)
                counters.factor_passes += 1
                counters.add("identity_taylor_applies")
        return results, float(estimate.value)
    eye_transformed = half_exp(np.eye(dim))
    if counters is not None:
        counters.matvecs += dim * (degree - 1)
        counters.factor_passes += 1
        counters.add("identity_taylor_applies")
    return results, float(np.sum(eye_transformed * eye_transformed))


class ExactDotExpOracle:
    """Reference oracle: exact density matrix via eigendecomposition.

    The trace products ``A_i . W`` go through
    :meth:`~repro.operators.collection.ConstraintCollection.dots`.  When
    the collection's Gram factors are exact (``Q_i Q_i^T = A_i`` by
    construction — see
    :attr:`~repro.operators.psd_operator.PSDOperator.gram_factor_is_exact`)
    the oracle builds the packed factor view up front, so they run as one
    GEMM plus a segment reduction; collections with inexact
    (eigendecomposition-derived) factors keep the per-constraint loop.
    Either way the backend is charged the same per-constraint ``nnz(A_i)``
    work and max-depth under ``constraint-dots`` (see
    :meth:`~repro.parallel.backends.ExecutionBackend.charge_batched`).

    Parameters
    ----------
    constraints:
        The constraint collection whose trace products are needed.
    backend:
        Optional execution backend used for the trace products (and their
        work–depth accounting).
    """

    #: The exact oracle eigendecomposes the dense ``psi`` argument, so the
    #: decision solvers must maintain it (dense ``PsiState``).
    needs_dense_psi = True

    def __init__(
        self,
        constraints: ConstraintCollection,
        backend: ExecutionBackend | None = None,
    ) -> None:
        self.constraints = constraints
        self.backend = backend
        self.counters = OracleCounters()
        if constraints.has_exact_factors:
            # Build (and cache) the packed view so dots()/weighted_sum()
            # reroute to the batched kernels; free for factorized inputs.
            constraints.packed()

    def __call__(self, psi: np.ndarray, x: np.ndarray) -> OracleOutput:
        if psi is None:
            raise InvalidProblemError(
                "the exact oracle needs the dense psi matrix "
                "(needs_dense_psi = True); only the fast oracle accepts psi=None"
            )
        self.counters.record_call()
        self.counters.eigendecompositions += 1
        m = self.constraints.dim
        density = expm_normalized(psi)
        values = self.constraints.dots(density, backend=self.backend)
        work = float(m**3 + self.constraints.total_nnz)
        self.counters.flops_estimate += work
        return OracleOutput(values=values, trace=1.0, work=work)

    def export_state(self) -> dict:
        """Checkpointable snapshot (the exact oracle is stateless bar counters)."""
        return {"kind": "exact", "counters": self.counters.export_state()}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state.get("kind") != "exact":
            raise InvalidProblemError(
                f"cannot import oracle state of kind {state.get('kind')!r} "
                "into an ExactDotExpOracle"
            )
        self.counters.import_state(state["counters"])


class FastDotExpOracle:
    """Theorem 4.1 oracle: truncated Taylor + JL sketch on factorized constraints.

    The oracle's normalization ``Tr[exp(Psi)]`` depends on the regime: with
    a genuinely reducing sketch it is read off the transformed sketch block
    at no extra cost (``|| Pi exp(Psi/2) ||_F^2``); in the degenerate-sketch
    regime (JL dimension at least ``m`` — the default configuration for
    every ``m`` below several thousand) it comes from a structured
    :class:`~repro.linalg.trace_estimation.TraceEstimator` (exact
    Gram-spectrum / deflated block-Krylov projection, or the certified
    Hutchinson sampler) so no ``(m, m)`` identity passes through the Taylor
    polynomial.  Every regime estimates the same quantity, so the returned
    values are directly comparable to the exact oracle's.

    The oracle rebuilds ``Psi`` from ``x`` through the collection's packed
    factor view and never reads the ``psi`` argument —
    ``needs_dense_psi = False``, and calls may pass ``psi=None`` (the
    decision solvers do exactly that when their matrix-free
    :class:`~repro.core.psi_state.ImplicitPsiState` is active, so no dense
    ``sum_i x_i A_i`` is ever assembled for the oracle's sake).  The
    positional ``psi`` slot is kept for the :class:`DotExpOracle` protocol.

    The Taylor kernels come from the packed view's cached rank-adaptive
    :class:`~repro.linalg.taylor_gram.TaylorEngine` (work of its
    active-column updates charged to ``backend`` under
    ``taylor-engine-update``).  The recovery supervisor may demote the
    oracle to the per-term reference recurrence by clearing
    :attr:`blocked`; that state is checkpointed with the rest.

    Parameters
    ----------
    constraints:
        Constraint collection; its packed Gram-factor view is built once
        and cached on the collection.
    eps:
        Relative accuracy of the oracle (values are within ``(1 +- eps)`` of
        the exact ratios with high probability).  The decision solver's
        threshold test tolerates a constant-factor slack in ``eps``.
    kappa_bound:
        Optional a-priori bound on ``||Psi||_2`` (e.g. the Lemma 3.2 bound
        ``(1 + 10 eps) K``); when omitted the norm is estimated per call by
        power iteration.
    sketch_constant:
        JL dimension multiplier.
    rng:
        Randomness source (a fresh sketch is drawn every call).
    taylor_chunk_columns:
        Optional column-chunk size forwarded to the kernels to bound
        their peak memory on wide sketch blocks (``None`` = unchunked).
    trace_mode:
        Trace-normalisation strategy for the degenerate-sketch regime.
        ``"auto"`` (default) applies
        :func:`~repro.linalg.trace_estimation.select_trace_mode` —
        the exact Gram-spectrum path when ``2R`` is within the hysteresis
        margin of ``m``, the exact deflated block-Krylov projection while
        ``R`` stays meaningfully below ``m``, the identity push otherwise
        (at ``R ~ m`` its columns carry the estimates too, so it is
        genuinely optimal).  Explicit values force a mode
        (``"gram"``/``"deflated"``/``"hutchinson"``/``"identity"``);
        ``"identity"`` disables the estimator and always pushes the
        identity through the polynomial.
    trace_seed:
        Deterministic seed of the Hutchinson probe stream (default 0).
        The probes never touch the oracle's ``rng``, so enabling or
        disabling the structured trace cannot shift the sketch stream —
        the fixed-seed decision-equivalence regressions rely on this.
    array_backend:
        Array backend of the packed kernels (``None``/``"numpy"``/
        ``"torch"``/``"cupy"`` or an :class:`~repro.backend.ArrayBackend`).
    """

    #: The fast oracle reads ``x`` only; the decision solvers may therefore
    #: run matrix-free and pass ``psi=None``.
    needs_dense_psi = False

    def __init__(
        self,
        constraints: ConstraintCollection,
        eps: float = 0.05,
        kappa_bound: float | None = None,
        sketch_constant: float = 8.0,
        rng: RandomState = None,
        backend: ExecutionBackend | None = None,
        taylor_chunk_columns: int | None = None,
        trace_mode: str = "auto",
        trace_seed: int | None = None,
        array_backend=None,
    ) -> None:
        if eps <= 0 or eps >= 1:
            raise InvalidProblemError(f"eps must be in (0, 1), got {eps}")
        self.constraints = constraints
        self.eps = float(eps)
        self.kappa_bound = kappa_bound
        self.sketch_constant = float(sketch_constant)
        self.rng = as_generator(rng)
        self.backend = backend
        #: ``False`` once the supervisor has demoted the oracle to the
        #: per-term reference Taylor recurrence (its ladder floor).
        self.blocked = True
        self.taylor_chunk_columns = taylor_chunk_columns
        self.counters = OracleCounters()
        self._engine: TaylorEngine | None = None
        # Converged power-iteration vector of the previous call: the
        # solver's Psi changes mildly per iteration, so warm-starting the
        # per-call norm estimate cuts it from hundreds of cold iterations
        # to a handful.
        self._norm_vector: np.ndarray | None = None
        # The packed view carries the array backend; the Taylor engine and
        # trace estimator adopt it from there.
        self._packed = constraints.packed(backend=array_backend)
        # Structured degenerate-regime trace estimator.  The sketch half of
        # the eps budget funds the Hutchinson certification: the degenerate
        # regime's identity "sketch" is exact, so that half is otherwise
        # unused there.
        self._trace_estimator: TraceEstimator | None = None
        if trace_mode != "identity":
            self._trace_estimator = TraceEstimator(
                self._packed,
                eps=self.eps / 2.0,
                mode=trace_mode,
                seed=0 if trace_seed is None else trace_seed,
            )

    @property
    def packed(self) -> PackedGramFactors:
        """The collection's packed factor view the oracle runs on."""
        return self._packed

    @property
    def taylor_engine(self) -> TaylorEngine | None:
        """The incremental Taylor engine, once the first call has built it.

        The decision solvers read its :meth:`~repro.linalg.taylor_gram.TaylorEngine.stats`
        into the result metadata so regressions can assert the
        active-column update discipline.
        """
        return self._engine

    @property
    def trace_estimator(self) -> TraceEstimator | None:
        """The structured degenerate-regime trace estimator.

        ``None`` with ``trace_mode="identity"``.  The decision solvers read
        its :meth:`~repro.linalg.trace_estimation.TraceEstimator.stats`
        into the result metadata next to the ``psi_state`` counters so
        regressions can assert the zero-identity-apply discipline.
        """
        return self._trace_estimator

    def __call__(self, psi: np.ndarray | None = None, x: np.ndarray | None = None) -> OracleOutput:
        if x is None:
            raise InvalidProblemError(
                "the fast oracle requires the weight vector x (psi may be None)"
            )
        m = self.constraints.dim
        weights = np.asarray(x, dtype=np.float64)
        if self.blocked:
            # The kernel is built from x rather than from the caller's psi
            # (callers may pass psi=None or a placeholder) and also serves
            # as the matvec for the norm estimate.  Its weight-dependent
            # state carries over from the previous call, so only the
            # changed weight coordinates are touched.
            if self._engine is None:
                self._engine = self._packed.taylor_engine(
                    chunk_columns=self.taylor_chunk_columns
                )
            operator = self._engine.kernel_for(weights, backend=self.backend)
            matvec = operator.matvec
        else:
            operator = None
            matvec = self._packed.matvec_fn(weights)
        kappa = self.kappa_bound
        if kappa is None:
            # One fresh draw per call (the cold start's exact rng
            # consumption, so every rung stays stream-identical), blended
            # into the previous call's converged vector: warm where Psi's
            # dominant direction persists, never blind where it moved.
            estimate, self._norm_vector = spectral_norm_power(
                matvec,
                dim=m,
                v0=self.fused_power_v0() if m > 0 else None,
                rng=self.rng,
                return_vector=True,
            )
            kappa = max(1.0, estimate * 1.05)
            self.counters.add("norm_estimates")
        tracer = self._trace_estimator if operator is not None else None
        trace_calls_before = tracer.calls if tracer is not None else 0
        estimates, trace_estimate = big_dot_exp(
            operator if operator is not None else matvec,
            self._packed,
            kappa=kappa,
            eps=self.eps,
            rng=self.rng,
            sketch_constant=self.sketch_constant,
            counters=self.counters,
            dim=m,
            return_trace=True,
            trace_estimator=tracer.bind(weights) if tracer is not None else None,
        )
        if trace_estimate <= 0:
            raise InvalidProblemError(
                "sketched trace estimate is non-positive; increase the sketch dimension"
            )
        values = estimates / trace_estimate
        sketch_dim = min(jl_dimension(m, self.eps / 2.0, constant=self.sketch_constant), m)
        degree = taylor_degree(kappa / 2.0, self.eps / 2.0)
        # Work in the Corollary 1.2 units: each of the `degree` polynomial
        # steps applies Psi to the block through the factors (O(q) per
        # column), plus one pass over the factor nonzeros for the estimates.
        # When the structured trace estimator handled the degenerate-regime
        # normalisation, the block is the (m, R) factor stack plus any
        # Hutchinson probes — not the (m, m) identity — and the estimator's
        # own model work (eigendecomposition / projection GEMMs / fallback
        # push) rides along, so the charge reflects what actually ran.
        q = self.constraints.total_nnz
        trace_info = (
            tracer.last
            if tracer is not None and tracer.calls > trace_calls_before
            else None
        )
        if trace_info is not None:
            columns = self._packed.total_rank + trace_info.probes
            work = float(columns * degree * max(q, m) + q + trace_info.extra_work)
        else:
            work = float(sketch_dim * degree * max(q, m) + q)
        self.counters.flops_estimate += work
        return OracleOutput(values=values, trace=trace_estimate, work=work)

    def export_state(self) -> dict:
        """Checkpointable snapshot of everything a resumed call sequence reads.

        Captures the sketch rng (``bit_generator.state``), the
        power-iteration warm-start vector, the counters, and — when built —
        the Taylor engine's mode/buffers and the trace estimator's state.
        The ``blocked`` flag rides along so a resume lands on the exact
        demotion rung the checkpoint was captured on.
        """
        return {
            "kind": "fast",
            # Kept for the version-1 layout; always equal to ``blocked``.
            "engine_enabled": bool(self.blocked),
            "blocked": bool(self.blocked),
            "rng": dict(self.rng.bit_generator.state),
            "norm_vector": (
                None if self._norm_vector is None
                else np.array(self._norm_vector, dtype=np.float64)
            ),
            "counters": self.counters.export_state(),
            "engine": (
                None if self._engine is None else self._engine.export_state()
            ),
            "trace": (
                None if self._trace_estimator is None
                else self._trace_estimator.export_state()
            ),
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The Taylor engine is rebuilt *directly* (not through the packed
        view's shared engine cache) at the checkpointed mode: an in-process
        resume must not alias the interrupted run's engine, whose buffers
        have advanced past the checkpoint.
        """
        if state.get("kind") != "fast":
            raise InvalidProblemError(
                f"cannot import oracle state of kind {state.get('kind')!r} "
                "into a FastDotExpOracle"
            )
        self.blocked = bool(state["blocked"])
        self.rng.bit_generator.state = state["rng"]
        vec = state.get("norm_vector")
        self._norm_vector = None if vec is None else np.array(vec, dtype=np.float64)
        self.counters.import_state(state["counters"])
        engine_state = state.get("engine")
        if engine_state is None:
            self._engine = None
        else:
            self._engine = TaylorEngine(
                self._packed,
                chunk_columns=self.taylor_chunk_columns,
                mode=engine_state["mode"],
            )
            self._engine.import_state(engine_state)
        trace_state = state.get("trace")
        if trace_state is not None:
            if self._trace_estimator is None:
                self._trace_estimator = TraceEstimator(
                    self._packed,
                    eps=self.eps / 2.0,
                    mode=trace_state["mode"],
                )
            self._trace_estimator.import_state(trace_state)
        else:
            # The checkpointed run had no estimator (identity reference
            # path); mirror that so the resumed arithmetic matches.
            self._trace_estimator = None

    def fused_update_weights(self, col_w: np.ndarray) -> None:
        """Advance the engine to one call's expanded weights (batched path).

        Exactly the kernel-construction step of :meth:`__call__` on the
        default engine path, minus the kernel view the batched solver never
        needs: ``repro.core.batch.solve_many`` expands and validates the
        whole group's weight stack in one pass, then advances each
        instance's engine here so its counters, charges and Gram buffer
        evolve exactly as they would under sequential solves (the batched
        GEMMs read the Gram stack directly instead of through a kernel).
        """
        if self._engine is None:
            self._engine = self._packed.taylor_engine(
                chunk_columns=self.taylor_chunk_columns
            )
        self._engine.update_weights(col_w, backend=self.backend)

    def fused_power_v0(self) -> np.ndarray:
        """Draw one call's warm-started power-iteration start vector.

        Reproduces the kappa chain's rng consumption and warm-start blend
        from :meth:`__call__` bit-for-bit: one fresh ``standard_normal(m)``
        draw, blended into the previous call's converged norm vector when
        one exists.  The batched solver stacks these rows as ``v0`` for
        :func:`~repro.linalg.norms.batched_spectral_norm_power`.
        """
        m = self.constraints.dim
        fresh = self.rng.standard_normal(m)
        if self._norm_vector is not None and m > 0:
            fresh_norm = float(np.linalg.norm(fresh))
            if fresh_norm > 0:
                fresh = self._norm_vector + NORM_RESTART_MIX * (fresh / fresh_norm)
        return fresh

    def fused_norm_result(self, estimate: float, vector: np.ndarray) -> float:
        """Record one batched power-iteration result; returns the call's kappa.

        Stores the converged vector as the next call's warm start, books the
        ``norm_estimates`` counter, and applies the same ``max(1, est *
        1.05)`` safety margin as :meth:`__call__`.
        """
        self._norm_vector = vector
        kappa = max(1.0, estimate * 1.05)
        self.counters.add("norm_estimates")
        return kappa

    def record_fused_call(self, degree: int, trace_estimate) -> float:
        """Book one batched-solver oracle pass against this oracle's counters.

        ``repro.core.batch.solve_many`` runs the degenerate structured-path
        estimate (stacked Taylor apply + squared column norms + structured
        trace) as batched GEMMs outside :meth:`__call__`, but each instance
        must record exactly the counters and Corollary 1.2 work charge a
        sequential call would have.  ``trace_estimate`` is the
        :class:`~repro.linalg.trace_estimation.TraceEstimate` the instance's
        own estimator returned for this pass (the estimator updates its own
        call/extra-work tallies inside ``estimate``); the norm-estimate
        counter is booked separately by the batched kappa chain.  Returns
        the work charge in model units.
        """
        packed = self._packed
        self.counters.record_call()
        self.counters.matvecs += packed.total_rank * (degree - 1)
        self.counters.factor_passes += len(packed)
        self.counters.add("packed_estimate_gemms")
        self.counters.matvecs += trace_estimate.probes * (degree - 1)
        self.counters.add("structured_trace_estimates")
        q = self.constraints.total_nnz
        m = self.constraints.dim
        columns = packed.total_rank + trace_estimate.probes
        work = float(columns * degree * max(q, m) + q + trace_estimate.extra_work)
        self.counters.flops_estimate += work
        return work


def oracle_engine_metadata(oracle) -> dict:
    """Result-metadata fragment with the oracle's engine/estimator counters.

    Returns ``{"taylor_engine": stats}`` when ``oracle`` is a fast oracle
    whose rank-adaptive engine has been built, plus
    ``{"trace_estimator": stats}`` when it carries a structured trace
    estimator — the one helper both decision solvers merge into their
    result metadata so regressions can assert the incremental-update and
    zero-identity-apply disciplines.
    """
    out: dict = {}
    engine = getattr(oracle, "taylor_engine", None)
    if engine is not None:
        out["taylor_engine"] = engine.stats()
    tracer = getattr(oracle, "trace_estimator", None)
    if tracer is not None:
        out["trace_estimator"] = tracer.stats()
    return out


def make_oracle(
    constraints: ConstraintCollection,
    kind: str = "exact",
    eps: float = 0.05,
    kappa_bound: float | None = None,
    rng: RandomState = None,
    backend: ExecutionBackend | None = None,
    trace_mode: str = "auto",
    trace_seed: int | None = None,
    array_backend=None,
) -> DotExpOracle:
    """Factory for the decision solver's oracle (``"exact"`` or ``"fast"``).

    ``trace_mode`` configures the fast oracle's structured
    degenerate-regime trace estimator (``trace_seed`` its deterministic
    probe stream).  ``array_backend`` selects the array backend of the fast
    oracle's packed kernels (``None``/``"numpy"``/``"torch"``/``"cupy"`` or
    an :class:`~repro.backend.ArrayBackend` instance); the exact oracle is
    NumPy-resident and rejects non-NumPy backends.
    """
    kind = kind.lower()
    if kind == "exact":
        if not get_array_backend(array_backend).is_numpy:
            raise InvalidProblemError(
                "the exact oracle is NumPy-resident; use kind='fast' with a "
                "non-NumPy array backend"
            )
        return ExactDotExpOracle(constraints, backend=backend)
    if kind == "fast":
        return FastDotExpOracle(
            constraints,
            eps=eps,
            kappa_bound=kappa_bound,
            rng=rng,
            backend=backend,
            trace_mode=trace_mode,
            trace_seed=trace_seed,
            array_backend=array_backend,
        )
    raise InvalidProblemError(f"unknown oracle kind {kind!r}; expected 'exact' or 'fast'")
