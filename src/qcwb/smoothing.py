"""Turn an approximate representation into an exact nearby one.

Given a triple (h, x, k) whose relation residuals are small, the algorithm
uses only functional calculus with smooth cutoffs plus one spectral
threshold:

1.  s = (h + h* - k - k*) / 2, the balanced difference, decomposed once as
    s = U diag(lambda) U*;
2.  h2 = g_plus(s), k2 = g_minus(s) with a smooth ramp g_plus that vanishes
    on the negative axis and equals the identity above theta/2, and
    x2 = q_minus(s) x q_plus(s) with a smooth indicator q_plus rising from
    0 to 1 over a narrow ramp, so x2 is squeezed into the k2-h2 corner;
3.  T2 = [[1 - h2, x2*], [x2, k2]] is not formed.  The cutoffs vanish
    exactly off their supports, so in the basis diag(U, U), with P the
    eigenvalues lambda > 0 and N those below 0, T2 is 1 on the top diagonal
    outside P, 0 on the bottom diagonal outside N, and on the rest the
    Hermitian corner block

        B = [[1 - g_plus(lambda_P), Y*], [Y, g_minus(lambda_N)]],
        Y = q_minus(lambda_N) (U_N* x U_P) q_plus(lambda_P),

    of size |P| + |N| <= n.  So spec T2 = spec B u {0, 1}, and one
    decomposition of B gives ||T2^2 - T2|| = max|mu^2 - mu| over spec B;
4.  if that defect is below 1/4 the spectrum avoids 1/2.  Thresholding B at
    1/2 yields a projection Pi, and the blocks of the exact projection that
    thresholds T2 are the output triple: h_out = U_P (1 - Pi_PP) U_P*,
    x_out = U_N Pi_NP U_P* and k_out = U_N Pi_NN U_N*.  Its arrays are made
    read-only.  Whether every distance moved is at most epsilon, and every
    output relation defect at most ``RESIDUAL_SUCCESS_TOL``, is decided from
    bounds, as the bound-first gate :func:`linalg._norm_gate` decides.  The
    report measures the figures themselves when they are first read.

Support orthogonality of g_plus and g_minus makes the output orthogonality
exact up to rounding, and the whole construction moves each component only
O(theta) plus the spectral displacement of the threshold step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_PROFILE,
    RealFunction,
    ToleranceProfile,
    _eigh_raw,
    _max_norm_above,
    _norm_gate,
    _threshold,
    adjoint,
    hermitian_part,
    op_norm,
    smooth_step,
)
from .qc_model import QcTriple, _low_level_defects, low_level_residuals

__all__ = [
    "SpectralGapFailure",
    "ResidualTooLarge",
    "NoWorkableTheta",
    "SmoothingParams",
    "SmoothingReport",
    "make_gplus",
    "make_gminus",
    "make_qplus",
    "make_qminus",
    "smooth_representation",
    "auto_theta",
]


class SpectralGapFailure(RuntimeError):
    """The blocked matrix T2 has spectrum too close to 1/2 to threshold."""


class ResidualTooLarge(ValueError):
    """Input residuals or norms exceed what the algorithm accepts."""


class NoWorkableTheta(RuntimeError):
    """The downward search over cutoff widths found no success."""

    def __init__(self, message: str, last_failure: str = "gap"):
        super().__init__(message)
        self.last_failure = last_failure


# ---------------------------------------------------------------------------
# cutoff functions
# ---------------------------------------------------------------------------


def _check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the target distance lies in (0, 1/4); a NaN fails."""
    if not 0.0 < epsilon < 0.25:
        raise ValueError(f"epsilon must lie in (0, 1/4), got {epsilon}")


def _check_theta(theta: float) -> None:
    """Raise ``ValueError`` unless the cutoff width is positive and finite; a NaN fails."""
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")


def _q_ramp(theta: float) -> float:
    """The ramp width of the q cutoffs of width ``theta``: theta^2/4."""
    return theta**2 / 4.0


def make_gplus(theta: float) -> RealFunction:
    """Smooth positive-part ramp: 0 on t <= 0, identity above theta/2.

    On [0, theta/2] it is t * step(2t/theta), evaluated there only (an
    infinite t meets no inf * 0), so t - theta/2 <= g(t) <= t pointwise on
    the positive axis.
    """
    _check_theta(theta)
    half = 0.5 * theta

    def fn(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.where(t <= 0.0, 0.0, t)
        ramp = (0.0 < t) & (t < half)
        out[ramp] = t[ramp] * smooth_step(t[ramp] / half)
        return out

    return RealFunction("gplus", fn, smoothness="smooth")


def make_gminus(theta: float) -> RealFunction:
    return _mirror(make_gplus(theta), "gminus")


def make_qplus(theta: float) -> RealFunction:
    """Smooth indicator of the positive axis: 0 on t <= 0, 1 above the ramp
    width theta^2/4 (:attr:`SmoothingParams.ramp_width`).

    That width keeps sqrt(t - t^2) * (1 - q(t)^2) below theta/2 on [0, 1],
    which is the slack the squeezing step needs.
    """
    _check_theta(theta)
    width = _q_ramp(theta)

    def fn(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0.0, 0.0, np.where(t >= width, 1.0, smooth_step(t / width)))

    return RealFunction("qplus", fn, smoothness="smooth")


def make_qminus(theta: float) -> RealFunction:
    return _mirror(make_qplus(theta), "qminus")


def _mirror(f: RealFunction, name: str) -> RealFunction:
    """``t -> f(-t)``, named ``name``."""
    return RealFunction(name, lambda t: f(-t), f.smoothness)


# ---------------------------------------------------------------------------
# parameters and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingParams:
    """Tuning of one smoothing run.

    ``epsilon`` is the target distance (must sit in (0, 1/4)); ``theta`` the
    ramp width of the g cutoffs, from which the q cutoffs' ramp width
    follows; ``delta`` the residual budget the input must meet, epsilon/2
    when not given.  The guarantee is existential in delta: callers supply
    it, the run reports failure when it was too generous.  An infinite
    delta gates no residual; :func:`auto_theta` returns its parameters with
    delta = inf.
    """

    epsilon: float
    theta: float
    delta: float | None = None
    profile: ToleranceProfile = field(default=DEFAULT_PROFILE)

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _check_theta(self.theta)
        if self.delta is None:
            object.__setattr__(self, "delta", self.epsilon / 2.0)

    @property
    def ramp_width(self) -> float:
        """The q cutoffs' ramp width, theta^2/4."""
        return _q_ramp(self.theta)


@dataclass
class SmoothingReport:
    """Residuals, spectra, and distances recorded along one smoothing run.

    ``success`` is decided during the run, from bounds: every distance moved
    is compared with epsilon, and every output residual with
    ``RESIDUAL_SUCCESS_TOL``.  The figures themselves,
    :attr:`input_residuals`, :attr:`output_residuals` and the distances
    ``dist_h``, ``dist_k`` and ``dist_x``, are measured when first read.
    They read ``input``, a read-only copy of the triple the run was given,
    since the caller's arrays may change after the call, and ``output``,
    the triple the run returned, whose arrays it made read-only.  So the
    figures are those of the run, and a write into either triple raises.
    """

    s_min: float
    s_max: float
    t2_defect: float
    theta: float
    epsilon: float
    success: bool
    input: QcTriple = field(repr=False, compare=False)
    output: QcTriple = field(repr=False, compare=False)
    profile: ToleranceProfile = field(repr=False, compare=False)

    @property
    def ramp_width(self) -> float:
        """The q cutoffs' ramp width, theta^2/4."""
        return _q_ramp(self.theta)

    @property
    def t2_within_half_epsilon(self) -> bool:
        """Whether ``||T2^2 - T2||`` is at most epsilon/2, up to 1e-6."""
        return self.t2_defect <= self.epsilon / 2.0 + 1e-6

    @cached_property
    def input_residuals(self) -> dict[str, float]:
        """The input's relation residuals, :func:`low_level_residuals`."""
        return low_level_residuals(self.input, self.profile)

    @cached_property
    def output_residuals(self) -> dict[str, float]:
        """The output's relation residuals, :func:`low_level_residuals`."""
        return low_level_residuals(self.output, self.profile)

    @cached_property
    def dist_h(self) -> float:
        """``||h_out - h||``."""
        return op_norm(self.output.h - self.input.h, self.profile)

    @cached_property
    def dist_k(self) -> float:
        """``||k_out - k||``."""
        return op_norm(self.output.k - self.input.k, self.profile)

    @cached_property
    def dist_x(self) -> float:
        """``||x_out - x||``."""
        return op_norm(self.output.x - self.input.x, self.profile)

    def to_obj(self) -> dict:
        return {
            "input_residuals": self.input_residuals,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "t2_defect": self.t2_defect,
            "t2_within_half_epsilon": self.t2_within_half_epsilon,
            "output_residuals": self.output_residuals,
            "distances": {"h": self.dist_h, "k": self.dist_k, "x": self.dist_x},
            "cutoffs": [
                {"name": "gplus", "theta": self.theta},
                {"name": "gminus", "theta": self.theta},
                {"name": "qplus", "theta": self.theta, "ramp_width": self.ramp_width},
                {"name": "qminus", "theta": self.theta, "ramp_width": self.ramp_width},
            ],
            "theta": self.theta,
            "ramp_width": self.ramp_width,
            "epsilon": self.epsilon,
            "success": self.success,
        }


RESIDUAL_SUCCESS_TOL = 1e-10
_THETA_FLOOR = 1e-6


def _checked_input(
    triple: QcTriple, profile: ToleranceProfile, delta: float = np.inf
) -> QcTriple:
    """A read-only copy of ``triple``, once it meets the preconditions.

    Raises :class:`ResidualTooLarge` when a component norm exceeds 2 or a
    relation residual exceeds ``delta``, in that order.  Each component is
    read first against the O(n^2) bound sqrt(||A||_1 ||A||_inf) >= ||A||;
    only one that bound does not settle goes through
    :func:`linalg._norm_gate`, where a NaN or inf entry raises
    :class:`NoConvergence` before any product is formed.  An infinite
    ``delta`` (the default) gates no residual; any other goes through the
    same gate, and a NaN fails.  Nothing
    here depends on theta, so :func:`auto_theta` checks, and copies, once.
    """
    for name, a in (("h", triple.h), ("x", triple.x), ("k", triple.k)):
        mag = np.abs(a)
        one, inf = mag.sum(axis=0).max(initial=0.0), mag.sum(axis=1).max(initial=0.0)
        if not (np.sqrt(one * inf) <= 2.0):
            _norm_gate(f"component norm ||{name}||", a, 2.0, ResidualTooLarge, profile)
    if not delta >= np.inf:  # a NaN delta is gated, and fails
        name, defects = "input residual", lambda: _low_level_defects(triple)
        _norm_gate(name, defects, delta, ResidualTooLarge, profile)
    copies = [np.array(a) for a in (triple.h, triple.x, triple.k)]
    for a in copies:
        a.flags.writeable = False
    return QcTriple(*copies)


def _exact_nearby(
    triple: QcTriple, theta: float, profile: ToleranceProfile
) -> tuple[np.ndarray, float, QcTriple]:
    """Steps 1-4 on the cutoffs of width ``theta``: the spectrum of s,
    ||T2^2 - T2||, and the output triple, whose arrays are made read-only.

    Each n x n intermediate is let go once it has been used, so few of them
    are held at a time.
    """
    h, x, k = triple.h, triple.x, triple.k
    # one decomposition of s (_eigh_raw takes its Hermitian part) serves its
    # extreme eigenvalues and all four cutoffs
    s_sys = _eigh_raw(0.5 * (h + h.conj().T - k - k.conj().T), profile)
    lam = s_sys.eigenvalues
    pos, neg = lam > 0.0, lam < 0.0
    u_p, u_n = s_sys.basis[:, pos], s_sys.basis[:, neg]
    del s_sys
    lam_p, lam_n = lam[pos], lam[neg]

    # the corner block of T2 in the basis diag(U, U); outside it T2 is
    # diagonal, 1 on the top half and 0 on the bottom half
    y = (
        make_qminus(theta)(lam_n)[:, None]
        * (adjoint(u_n) @ x @ u_p)
        * make_qplus(theta)(lam_p)
    )
    b_sys = _eigh_raw(
        np.block(
            [
                [np.diag(1.0 - make_gplus(theta)(lam_p)), adjoint(y)],
                [y, np.diag(make_gminus(theta)(lam_n))],
            ]
        ),
        profile,
    )
    del y
    t2_defect, pi = _threshold(b_sys, "||T2^2 - T2||", SpectralGapFailure)
    del b_sys
    p = lam_p.size

    h_out = hermitian_part(u_p @ (np.eye(p) - pi[:p, :p]) @ adjoint(u_p))
    x_out = u_n @ pi[p:, :p] @ adjoint(u_p)
    k_out = hermitian_part(u_n @ pi[p:, p:] @ adjoint(u_n))
    for a in (h_out, x_out, k_out):
        a.flags.writeable = False
    return lam, float(t2_defect), QcTriple(h_out, x_out, k_out)


def _smooth_checked(
    triple: QcTriple, params: SmoothingParams
) -> tuple[QcTriple, SmoothingReport]:
    """The pipeline on the copy that :func:`_checked_input` returned."""
    profile = params.profile
    lam, t2_defect, out = _exact_nearby(triple, params.theta, profile)
    # one difference, then one defect, at a time, as in low_level_residuals;
    # map holds none of them
    moves = map(np.subtract, (out.h, out.x, out.k), (triple.h, triple.x, triple.k))
    far = map(lambda move: _max_norm_above(move, [params.epsilon], profile)[0], moves)
    tol = [RESIDUAL_SUCCESS_TOL]
    loose = map(lambda d: _max_norm_above(d, tol, profile)[0], _low_level_defects(out))
    success = not any(far) and not any(loose)
    report = SmoothingReport(
        s_min=float(lam[0]) if lam.size else 0.0,
        s_max=float(lam[-1]) if lam.size else 0.0,
        t2_defect=t2_defect,
        theta=params.theta,
        epsilon=params.epsilon,
        success=success,
        input=triple,
        output=out,
        profile=profile,
    )
    return out, report


def smooth_representation(
    triple: QcTriple, params: SmoothingParams
) -> tuple[QcTriple, SmoothingReport]:
    """Run the cutoff-and-threshold pipeline on an approximate representation.

    Raises :class:`ResidualTooLarge` when the input misses the residual or
    norm preconditions, :class:`SpectralGapFailure` when the blocked matrix
    cannot be thresholded.  Success in the report means output residuals at
    most 1e-10 and distances at most epsilon.
    """
    return _smooth_checked(_checked_input(triple, params.profile, params.delta), params)


def auto_theta(
    triple: QcTriple,
    epsilon: float,
    profile: ToleranceProfile = DEFAULT_PROFILE,
) -> tuple[SmoothingParams, QcTriple, SmoothingReport]:
    """Search a workable cutoff width by halving theta downward from epsilon/2.

    Returns the successful parameters together with the run's output; raises
    :class:`NoWorkableTheta` when ``_THETA_FLOOR`` is reached without success.  The
    input is checked, and copied, once, before the search.  No input residual
    is gated, so the parameters carry delta = inf; an input that misses the
    norm precondition fails at once, with last failure ``"residual"``.  An
    epsilon outside (0, 1/4) raises ``ValueError`` before any norm is taken.
    """
    _check_epsilon(epsilon)
    try:
        triple = _checked_input(triple, profile)
    except ResidualTooLarge as exc:
        raise _no_workable_theta("residual") from exc
    theta = epsilon / 2.0
    last_failure = "residual"
    while theta >= _THETA_FLOOR:
        params = SmoothingParams(
            epsilon=epsilon, theta=theta, delta=np.inf, profile=profile
        )
        try:
            out, report = _smooth_checked(triple, params)
        except SpectralGapFailure:
            last_failure = "gap"
        else:
            if report.success:
                return params, out, report
            last_failure = "distance" if report.t2_defect < 0.25 else "gap"
        theta *= 0.5
    raise _no_workable_theta(last_failure)


def _no_workable_theta(last_failure: str) -> NoWorkableTheta:
    return NoWorkableTheta(
        f"no cutoff width above {_THETA_FLOOR:.1e} smooths this triple "
        f"(last failure: {last_failure})",
        last_failure=last_failure,
    )
