"""Every numerical tolerance and floor of the package, each named once, and
the one table of checks that compare a measured value with them.

Each comment says what the value is absolute or relative to, then argues it.
The CLI sets only DEFAULT_STEP (trace --step), and no tolerance. Not here: the
1e-300 divide guard, cr_scan's finite-difference step, the domain rho > 0
(levi) and sampling's grid sizes.
"""

import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

# -- Levi strata, Monge-Ampere and the Z solve ---------------------------------
# relative to max(1, |eigenvalue|max) of H; eigvalsh roundoff (about 1e-16 |H|) stays 8 orders below
DEFAULT_TOL_RANK = 1e-8
# absolute, on the scaled |det U| = |det U| / max(1, ||U||_F)^n; MA inputs measure at most 1.4e-15 on the corpus
VERDICT_MA_TOL = 1e-8
# absolute, in units of rho; log rho and U = H/rho - g gbar^T/rho^2 lose every digit as rho -> 0
RHO_FLOOR = 1e-12
# relative to max(1, ||conj(grad)||), on ||H^T Z - conj(grad)||; a stable solve leaves about 1e-16 cond(H);
# burns applies it to Z = w/k, which Euler's identity makes exact on pure (k,k): measured within 4.3e-16 at box 1e-3 to 1e8
Z_SOLVE_TOL = 1e-8
# relative to the largest singular value of H; near machine scale, as a cutoff at 1e-8 would cut consistent directions near the degenerate set and make O(|z|) jumps in Z
LSTSQ_RCOND = 1e-12

# -- leaves and weights --------------------------------------------------------
# absolute, in flow time (fixed RK4 step); a leaf's log-linearity error is about 1e-11, 5 orders below the 1e-6 gates
DEFAULT_STEP = 1e-2
# absolute, on |log rho(node) - log rho(base) - t|; the RK4 error at DEFAULT_STEP is about 1e-11
TRACE_LOG_LIN_TOL = 1e-6
# relative to the mean rho over s at fixed t; the Y flow preserves rho, so only the RK4 error remains
TRACE_LEVEL_TOL = 1e-6
# absolute, on max |c - expected c| (suite weights_match); expected weights are exact, measured within 4.5e-16
WEIGHTS_MATCH_TOL = 1e-9
# relative to |rho(z)|, on the homogeneity identity at 8 scalings; measured within 1.2e-14 on the corpus
WEIGHT_VERIFY_TOL = 1e-9
# relative, on max ||H^T (c z) - conj(grad)|| / max(1, ||grad||); an identity for valid weights c by Euler's relation, degenerate points included; measured within 3.5e-16 on the corpus
WEIGHT_FIELD_TOL = 1e-8
# relative to max(1, r), on |rho(s z) - r|; about 45 ulps of r, where the search along the ray meets rho's roundoff
LEVEL_BISECT_TOL = 1e-14
# relative to r1, on |rho - r1| of flow_level_map_check's samples; rescale_to_level lands within 1e-14
LEVEL_SET_TOL = 1e-8

# -- burns ----------------------------------------------------------------------
# relative to max |eigenvalue| of C (rho = v* C v), on its min eigenvalue; eigvalsh roundoff is about 1e-16 of the max; the bundled and generated burns-pass inputs measure 0.13 or more
SPHERE_POSITIVITY_TOL = 1e-12

# -- suite and analyze checks -----------------------------------------------------
# absolute, on the Euler residual |Z(rho) - rho| and on |det U|; euler_ma_iff needs both below it together
IFF_TOL = 1e-9
# absolute, on the max scaled |det U| of a non-MA expectation; 5 orders above VERDICT_MA_TOL; non-MA inputs up to n = 4 measure 1.4e-2 or more
NON_MA_FLOOR = 1e-3
# relative to max(1, |rho|), on Im rho; a Hermitian term set leaves only roundoff (8e-17 on the corpus)
HERMITIAN_EVAL_TOL = 1e-12
# relative to max(1, max |H|), on max |H - H*|; exact symbolic derivatives leave only roundoff (1e-16)
HESSIAN_SYMMETRY_TOL = 1e-12
# relative to max(1, |det H|), on Im det H; LU of a Hermitian H leaves only roundoff (5.6e-16)
DET_REAL_TOL = 1e-10
# relative to max(1, |rho^(n+1) det U|), on det [[rho, gbar^T], [g, H]] - rho^(n+1) det U, an identity
DET_LEMMA_TOL = 1e-9
# exact, on a count of mismatches or violations (and a parse error) or the weight certificate's rational |r|
ZERO_COUNT = 0.0

# -- the check table --------------------------------------------------------------


class Check(NamedTuple):
    name: str
    threshold: str  # the constant above it compares with
    op: str  # measured <op> threshold passes; a measured value of None (nothing ran) fails
    finding: bool = False  # a failure is a finding about the input (exit 0), not a failed check (exit 1)


CHECKS = {check.name: check for check in (
    # analyze, suite: invariants of the scan, which hold for any potential
    Check("hermitian_eval", "HERMITIAN_EVAL_TOL", "<"),
    Check("hessian_symmetry", "HESSIAN_SYMMETRY_TOL", "<"),
    Check("det_real", "DET_REAL_TOL", "<"),
    Check("det_lemma", "DET_LEMMA_TOL", "<"),
    Check("euler_ma_iff", "ZERO_COUNT", "=="),  # samples where exactly one of Euler, raw |det U| is below IFF_TOL
    # analyze: max over samples; burns: the Monge-Ampere gate, max over the grid
    Check("ma_residual_scaled", "VERDICT_MA_TOL", "<", finding=True),
    Check("euler_residual", "IFF_TOL", "<", finding=True),
    # suite: the expectations of expect.json
    Check("ma_holds", "VERDICT_MA_TOL", "<"),
    Check("ma_fails", "NON_MA_FLOOR", ">"),
    Check("weights_infeasible", "ZERO_COUNT", ">"),  # |r| of the inconsistent subset, 0 when feasible
    Check("weights_match", "WEIGHTS_MATCH_TOL", "<="),
    Check("parse", "ZERO_COUNT", "=="),
    # weights, suite
    Check("weights_verify", "WEIGHT_VERIFY_TOL", "<"),
    Check("weights_field", "WEIGHT_FIELD_TOL", "<"),
    # trace
    Check("log_linearity", "TRACE_LOG_LIN_TOL", "<"),
    Check("level_set_invariance", "TRACE_LEVEL_TOL", "<"),
    Check("stratum_invariance", "ZERO_COUNT", "=="),
    # burns (and suite's burns_verdict, which passes when the verdict matches the expectation)
    Check("positivity_margin", "SPHERE_POSITIVITY_TOL", ">", finding=True),
    Check("radial_field_residual", "Z_SOLVE_TOL", "<"),  # evaluated only on a passing verdict
)}

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | finding (a failed check whose entry is a finding)
    measured: float | None  # None: the check did not run
    threshold_name: str  # the constant of the entry
    threshold: float  # its value
    wall: float = field(repr=False, compare=False)  # seconds; timing, not part of the result


def threshold(name):
    """The value check `name` compares with."""
    return float(globals()[CHECKS[name].threshold])


def outcome(name, measured, t0):
    """The record of check `name` on its measured value, for a check that
    started at perf_counter() == t0."""
    check = CHECKS[name]
    value = threshold(name)
    if measured is not None and _COMPARE[check.op](measured, value):
        status = "pass"
    else:
        status = "finding" if check.finding else "fail"
    return CheckOutcome(name, status, measured, check.threshold, value, time.perf_counter() - t0)
