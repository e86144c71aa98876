"""Adaptive Lawson Dormand-Prince 8(5,3) integration of the sphere-restricted flow.

This is the package's independent oracle: every closed-form solution is
cross-checked against trajectories produced here.  The right-hand side is
the sphere field in the integrator's frame, evaluated on dense
coefficient arrays over the cutoff's ladder table through the kernel that
``hamiltonian.frame_kernel`` binds from the field's one moment core, so
the flow and the vector field share one definition of the algebra.

Specifics:

* the sphere field is -i N y plus a nonlinear remainder, and N, the
  excitation operator, is diagonal and exact in every cutoff; each step
  integrates the remainder in the interaction picture z(tau) =
  e^{iN tau} y(t0 + tau) (Lawson, SIAM J. Numer. Anal. 4 (1967) 372;
  Hochbruck-Ostermann, Acta Numerica 19 (2010) 209), so the fast phases
  e^{-iNt} are exact and the step size follows the remainder alone.  The
  frame uses only the cutoff's N diagonal;
* the scheme on z is the 12-stage 8th-order pair DOP853 of Prince and
  Dormand (J. Comput. Appl. Math. 7 (1981) 67; Hairer-Norsett-Wanner,
  Solving ODEs I, Sec. II.5 and II.6) with the combined 5th/3rd-order
  error estimate and standard step control; the coefficients are those of
  Hairer's ``dop853.f``.  Stage j needs z' = e^{iN theta} (F(y) + iN y)
  at y = e^{-iN theta} z and the frame angle theta = c_j h; every ladder
  op shifts N by a fixed amount, so ``sphere_field`` computes it from z
  and scalar phases e^{i sign theta} alone, and no vector is rotated
  inside a step.  The flow is reversible: a backward run takes the same
  field with the signed step, step = -h, in the signed time t throughout;
* after every accepted step the state y_new = e^{-iN h} z(h) is projected
  back to the unit sphere; the projection magnitude is logged and must
  stay below ten times the local tolerance (the continuous flow conserves
  the norm, so the projection removes integrator drift only);
* the stages and z(0) live in one preallocated (17, n) buffer zk, the
  stages reversed (K[k] in row 15 - k) and z(0) in row 16; stage 12 is
  z'(h), which rotated by the same e^{-iN h} is the next step's first
  stage (FSAL).  Once per step the (16, 17) coefficient matrix
  [step A reversed | 1] is written in one multiply, so stage point j is
  one dot of its row with zk[16 - j:]: sum_k (step A[j, k]) K[k] + z0,
  z(0) added last like z0 + step (A[j] @ K), whose last bits it need not
  keep (the step counts it does keep).  Each call builds a stage plan
  once: for stage j, row j of a (16, n) buffer, the coefficient row, the
  slice of zk, the row K[j] and the stage time c_j.  Each call also
  binds the cutoff's frame-field kernel once (``hamiltonian.frame_kernel``
  with the abort threshold): what a stage reads from the ladder table is
  looked up then, and the kernel keeps its conj(z) buffer.  A stage then
  writes z_j into its row with that dot and makes one ``sphere_field``
  call through the kernel, which gathers from the row in place and
  writes z'_j straight into K[j]: no stage copies its state or its
  derivative, looks up a table field or calls further down than the
  kernel;
* 7th-order dense output of z from the step's own continuous extension,
  rotated back by e^{-iN(t - t0)}: three more stages per accepted step
  give the 7 coefficient rows of each segment, so an accepted step costs
  15 field evaluations and a rejected step 12.  Each accepted step
  writes its start state y and its 7 rows into one contiguous
  (steps, 8, n) store, which starts under 127 KiB and doubles when it
  is full.  The
  samples are read in blocks of rows whose (rows, n) arrays stay under
  127 KiB, below glibc's default mmap threshold: per block, the
  Horner scheme on rows gathered from the store with one index, the
  segment of each time (one ``np.searchsorted`` for all the samples),
  and the norms, unit states, <N> and energies of the block, written
  into one read-only table of sampled states whose rows are the
  trajectory's states.  Samples times basis size is capped at 2^20, the
  size of that table; ``Trajectory.interpolate`` reads the same store
  and the distinct values of N found once per call of ``integrate``;
* amplitude that a raising operator would push past the degree cutoff is
  monitored at every evaluation, dense-output stages included; if a
  state with nonzero centering moments reaches the boundary the
  integration aborts with TruncationError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fock, hamiltonian
from .errors import IntegrationError
from .fock import Cutoff, FockVector

# DOP853 tableau (Hairer's dop853.f) as a strictly lower-triangular matrix:
# stage s is evaluated at z + h * (_A[s, :s] @ K[:s]).  Row 12 holds the
# 8th-order weights, so stage 12 is evaluated at the new state (FSAL);
# rows 13-15 are the three extra stages of the dense output.
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2,
             5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                       1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2,
                       -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                          1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1,
                          -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                        -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444,
                                        -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1,
                                        -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258,
                                        1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                      4.45031289275240888144113950566,
                                      1.89151789931450038304281599044,
                                      -5.8012039600105847814672114227,
                                      3.1116436695781989440891606237e-1,
                                      -1.52160949662516078556178806805e-1,
                                      2.01365400804030348374776537501e-1,
                                      4.47106157277725905176885569043e-2]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                       2.53500210216624811088794765333e-1,
                                       -2.46239037470802489917441475441e-1,
                                       -1.24191423263816360469010140626e-1,
                                       1.5329179827876569731206322685e-1,
                                       8.20105229563468988491666602057e-3,
                                       7.56789766054569976138603589584e-3,
                                       -8.298e-3]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                        2.83009096723667755288322961402e-2,
                                        5.35419883074385676223797384372e-2,
                                        -5.49237485713909884646569340306e-2,
                                        -1.08347328697249322858509316994e-4,
                                        3.82571090835658412954920192323e-4,
                                        -3.40465008687404560802977114492e-4,
                                        1.41312443674632500278074618366e-1]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                       -4.69762141536116384314449447206,
                                       7.68342119606259904184240953878,
                                       4.06898981839711007970213554331,
                                       3.56727187455281109270669543021e-1,
                                       -1.39902416515901462129418009734e-3,
                                       2.9475147891527723389556272149,
                                       -9.15095847217987001081870187138]
_B = _A[12, :12]

# Stage times as fractions of the step: the row sums of _A; c_j h is the
# frame angle at which stage j evaluates ``sphere_field``.  Python floats,
# so c_j h is a float product.
_C = (
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778,
)

# Error rows over stages 0..11: the 8th-order update minus the embedded
# 5th-order one (_E5) and minus the embedded 3rd-order one (_E3).
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1]
_E3 = _B.copy()
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_ERR = np.stack([_E5, _E3]).astype(complex)

# Last four coefficient rows of the dense output, over all 16 stages.
_D = np.zeros((4, 16))
_D[0, [0, *range(5, 16)]] = [-0.84289382761090128651353491142e+1,
                             0.56671495351937776962531783590,
                             -0.30689499459498916912797304727e+1,
                             0.23846676565120698287728149680e+1,
                             0.21170345824450282767155149946e+1,
                             -0.87139158377797299206789907490,
                             0.22404374302607882758541771650e+1,
                             0.63157877876946881815570249290,
                             -0.88990336451333310820698117400e-1,
                             0.18148505520854727256656404962e+2,
                             -0.91946323924783554000451984436e+1,
                             -0.44360363875948939664310572000e+1]
_D[1, [0, *range(5, 16)]] = [0.10427508642579134603413151009e+2,
                             0.24228349177525818288430175319e+3,
                             0.16520045171727028198505394887e+3,
                             -0.37454675472269020279518312152e+3,
                             -0.22113666853125306036270938578e+2,
                             0.77334326684722638389603898808e+1,
                             -0.30674084731089398182061213626e+2,
                             -0.93321305264302278729567221706e+1,
                             0.15697238121770843886131091075e+2,
                             -0.31139403219565177677282850411e+2,
                             -0.93529243588444783865713862664e+1,
                             0.35816841486394083752465898540e+2]
_D[2, [0, *range(5, 16)]] = [0.19985053242002433820987653617e+2,
                             -0.38703730874935176555105901742e+3,
                             -0.18917813819516756882830838328e+3,
                             0.52780815920542364900561016686e+3,
                             -0.11573902539959630126141871134e+2,
                             0.68812326946963000169666922661e+1,
                             -0.10006050966910838403183860980e+1,
                             0.77771377980534432092869265740,
                             -0.27782057523535084065932004339e+1,
                             -0.60196695231264120758267380846e+2,
                             0.84320405506677161018159903784e+2,
                             0.11992291136182789328035130030e+2]
_D[3, [0, *range(5, 16)]] = [-0.25693933462703749003312586129e+2,
                             -0.15418974869023643374053993627e+3,
                             -0.23152937917604549567536039109e+3,
                             0.35763911791061412378285349910e+3,
                             0.93405324183624310003907691704e+2,
                             -0.37458323136451633156875139351e+2,
                             0.10409964950896230045147246184e+3,
                             0.29840293426660503123344363579e+2,
                             -0.43533456590011143754432175058e+2,
                             0.96324553959188282948394950600e+2,
                             -0.39177261675615439165231486172e+2,
                             -0.14972683625798562581422125276e+3]

# All 7 coefficient rows of a segment as h * (_DENSE @ K): the first three
# are z_new - z, h z'(0) - (z_new - z) and 2 (z_new - z) - h (z'(0) + z'(h)),
# written through the weights _B (stage 0 is z'(0), stage 12 is z'(h)).
_DENSE = np.zeros((7, 16), dtype=complex)
_DENSE[0, :12] = _B
_DENSE[1, :12] = -_B
_DENSE[1, 0] += 1.0
_DENSE[2, :12] = 2.0 * _B
_DENSE[2, [0, 12]] -= 1.0
_DENSE[3:] = _D
_A = _A.astype(complex)  # the coefficient matrix is complex: no per-step cast
# The stage buffer holds K[15], ..., K[0], z(0) in its rows, reversed, so
# that each stage point reads one contiguous slice and its dot adds z(0)
# after the stage terms, as z0 + h (A K) does: with z(0) first the sum
# rounds at the scale of z(0) once per term, and the energy drift over
# 56 seeded flow cases grew (33 of 56 worse).
_A_REV = _A[:, ::-1]

# The frame takes the fast phases e^{-iNt} out of the steps, so the cap
# now bounds the 7th-order dense output on the remaining nonlinear scalar
# rotation -i s(y) y (and, off the centered states, the ladder terms).
# 0.25 is the largest cap that keeps a basis-vector equilibrium's norm
# drift over 4 pi below 1e-12 (2.6e-13; a cap of 0.3 gives 1.1e-12).
_H_MAX = 0.25
_SAFETY = 1.0 / 100.0  # internal per-step error target relative to the
# requested tolerance, sized so conserved-quantity drift over O(10) time
# units stays at the requested tolerance level
_TRUNCATION_FLUX_TOL = 1e-12
# step budget of dop853.f (NMAX, IDID = -2 there): accepted plus rejected
# steps; as no step exceeds _H_MAX, no span above _H_MAX * _MAX_STEPS fits
_MAX_STEPS = 100_000
_END_SLACK = 1e-13  # relative to max(1, span): a shorter remainder is done


_MAX_SAMPLE_ENTRIES = 2**20  # samples x basis size: the sampled states' table
# entries of one block of samples, (rows, n): a complex (rows, n) array is
# at most 127 KiB, below glibc's default mmap threshold of 128 KiB
# (mallopt(3), M_MMAP_THRESHOLD) with room for the chunk header, so the
# dense output of a block maps no fresh pages on every call
_SAMPLE_BLOCK = 2**13 - 2**6


def sphere_field(
    kernel, z: np.ndarray, theta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Sphere field's remainder e^{iN theta} (F(y) + iN y) at
    y = e^{-iN theta} z through ``kernel``, the ``hamiltonian.frame_kernel``
    of the ladder table of z's cutoff with the truncation-flux abort
    threshold: read from z in place and written into ``out`` when given.
    Every field evaluation of ``integrate`` is one call of this
    function."""
    return kernel(z, theta, out)


class _DenseOutput(NamedTuple):
    """The accepted steps' dense output, one segment per step.

    ``rows`` is a view of the leading steps of the step loop's store, so
    a trajectory holds the whole store, its unused capacity included: the
    first capacity (under 127 KiB) or, once the store has doubled, up to
    twice the rows it reads."""

    t0: np.ndarray  # (steps,) signed time of each segment's start
    h: np.ndarray  # (steps,) its signed step, of t_end's sign
    # (steps, 8, n): the state y at the segment's start, z(0) of its frame,
    # then the 7 dense-output rows of z, see _interp_raw
    rows: np.ndarray
    # the distinct values of N and, per coefficient, the index of its value
    levels: np.ndarray
    level_of: np.ndarray


@dataclass(frozen=True)
class ConservedSamples:
    """Per-sample records along a trajectory (norm before re-projection)."""

    norm: np.ndarray
    mean_n: np.ndarray
    energy: np.ndarray


@dataclass(frozen=True)
class DriftRecord:
    norm: float
    mean_n: float
    energy: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the sphere flow.

    ``times`` are non-decreasing; ``states`` are unit-norm snapshots.
    ``conserved`` records raw interpolated norm plus excitation mean and
    energy per sample; ``max_renormalization`` is the largest per-step
    sphere-projection magnitude.
    """

    cutoff: Cutoff
    times: np.ndarray
    states: tuple[FockVector, ...]
    conserved: ConservedSamples
    initial_mean_n: float
    initial_energy: float
    max_renormalization: float
    accepted_steps: int
    rejected_steps: int
    _dense: _DenseOutput = field(repr=False)

    def interpolate(self, t: float) -> FockVector:
        """Dense-output state at any time t between 0 and t_end."""
        if not math.isfinite(t):
            raise ValueError(f"time {t} is not finite")
        dense = self._dense
        lo, hi = sorted((0.0, dense.t0[-1] + dense.h[-1]))
        # slack covers the float-roundoff sliver the stepper may leave at
        # the window end; polynomial extrapolation over it is exact in practice
        if t < lo - 1e-9 or t > hi + 1e-9:
            raise ValueError(f"time {t} outside the integrated range")
        times = np.array([t])
        return fock.from_array(self.cutoff, _interp_raw(dense, times, _segment_of(dense, times))[0])


def _sample_count(samples) -> int | None:
    """The count of equally spaced samples, or None for a 1-D array of
    sample times; a bool, a scalar that is not an integer, a negative count
    and an array of another dimension raise ValueError."""
    ndim = np.ndim(samples)
    if ndim == 1:
        return None
    count = -1
    if ndim == 0 and not isinstance(samples, (bool, np.bool_)):
        try:
            count = operator.index(samples)
        except TypeError:
            pass
    if count < 0:
        got = repr(samples) if ndim == 0 else f"an array of shape {np.shape(samples)}"
        raise ValueError(f"samples must be a count >= 0 or a 1-D array of times, got {got}")
    return count


def _stage_plan(n: int) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """The stage buffer, the coefficient matrix and the per-stage plan.

    The (17, n) stage buffer zk holds the stages in reverse, K[k] in row
    15 - k, and z(0) in row 16.  The (16, 17) coefficient matrix is
    [step A reversed | 1]: column 16 is one, and the caller writes step A
    with its columns reversed into the rest once per step.  Per stage
    j = 1..15 the plan holds row j of a (16, n) buffer of stage points,
    the coefficient row over columns 16 - j..16, the view zk[16 - j:]
    (K[j - 1], ..., K[0], z(0)), the row K[j] and the stage time c_j,
    whose product with the signed step is the frame angle."""
    zk = np.empty((17, n), dtype=complex)
    coef = np.zeros((16, 17), dtype=complex)
    coef[:, 16] = 1.0
    points = np.empty((16, n), dtype=complex)
    plan = [(points[j], coef[j, 16 - j :], zk[16 - j :], zk[15 - j], _C[j])
            for j in range(1, 16)]
    return zk, coef, plan


def _lawson_stages(kernel, plan, step) -> np.ndarray:
    """Fill the stages of ``plan`` (a slice of ``_stage_plan``) for the
    signed step ``step`` (-h on a backward run), whose z(0) and coefficient
    matrix [step A reversed | 1] are in place, in the frame
    z(sigma) = e^{iN sigma} y(t0 + sigma).

    Stage j writes z_j = sum_k step A[j, k] K[k] + z0, one dot of its
    coefficient row with zk[16 - j:], into its row, and z'_j, the
    derivative of z there, into K[j]: ``sphere_field`` through ``kernel``
    at the frame angle c_j step reads the row in place.  Returns the last
    z_j: for stages 1..12 that is the step's z(step), and K[12] ends as
    z'(step)."""
    for row, coef, zk, out, c in plan:
        np.dot(coef, zk, out=row)
        sphere_field(kernel, row, c * step, out)
    return row


def integrate(
    state: FockVector,
    t_end: float,
    tol: float = 1e-10,
    samples: int | np.ndarray = 65,
) -> Trajectory:
    """Integrate the sphere flow from a unit state over [0, t_end].

    ``tol`` (both absolute and relative) must lie in [1e-12, 1e-4]; the
    initial support must stay at least two degrees below the cutoff.
    ``t_end`` must be finite with ``1e-13 < |t_end| <= 25000``, the span
    that the budget of 100000 steps covers at the largest step; negative
    ``t_end`` integrates backward, and a run that needs more steps raises
    ``IntegrationError``.  ``samples`` is either a count (equally spaced,
    endpoints included) or an array of finite times inside the window;
    samples times basis size may not exceed 2^20, the size of the table of
    sampled states.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    fock.require_unit(state, 1e-8, what="initial state")
    if state.max_degree() > state.cutoff.k - 2:
        raise ValueError(
            f"initial support degree {state.max_degree()} exceeds interior "
            f"limit K-2={state.cutoff.k - 2}"
        )
    if not (np.isfinite(t_end) and abs(t_end) > _END_SLACK):
        raise ValueError(
            f"t_end must be finite with |t_end| > {_END_SLACK:g}, got {t_end}"
        )
    if abs(t_end) > _H_MAX * _MAX_STEPS:
        raise ValueError(
            f"t_end {t_end:g} too large: |t_end| may not exceed {_H_MAX * _MAX_STEPS:g}, "
            f"{_MAX_STEPS} steps of the largest step size {_H_MAX:g}"
        )

    span = abs(t_end)
    cutoff = state.cutoff
    table = fock.ladder_table(cutoff)
    kernel = hamiltonian.frame_kernel(table, _TRUNCATION_FLUX_TOL)

    spaced = _sample_count(samples)  # None for an array of times
    count = np.size(samples) if spaced is None else spaced
    if count * cutoff.size > _MAX_SAMPLE_ENTRIES:
        raise ValueError(
            f"sample table too large: {count} samples x {cutoff.size} coefficients "
            f"exceeds {_MAX_SAMPLE_ENTRIES} entries"
        )
    if spaced is None:
        sample_times = np.asarray(samples, dtype=float)
    else:
        sample_times = np.linspace(0.0, t_end, count)
    sample_t = np.sort(sample_times)
    if sample_t.size == 0:
        raise ValueError("at least one sample time is required")
    if not np.isfinite(sample_t).all():
        raise ValueError("sample times must be finite")
    lo, hi = sorted((0.0, t_end))
    if sample_t[0] < lo - 1e-12 or sample_t[-1] > hi + 1e-12:
        raise ValueError("sample times outside [0, t_end]")

    # N is an integer: the phases need one exponential per distinct value
    levels, level_of = np.unique(table.n_diag, return_inverse=True)

    y0 = state.normalized().array
    y = y0
    n = y0.size
    zk, coef, plan = _stage_plan(n)
    zk[16] = y
    # stages[k] is K[k]: the error and the dense rows sum over this view in
    # the order of dop853.f
    stages = zk[15::-1]
    # the views and buffers every step reuses
    coef_h, error_stages, first, last = coef[:, :16], stages[:12], stages[0], stages[12]
    step_plan, dense_plan = plan[:12], plan[12:]  # stages 1..12 and 13..15
    abs_y, scale = np.abs(y), np.empty(n)
    err, err_conj = np.empty((2, n), dtype=complex), np.empty((2, n), dtype=complex)
    sphere_field(kernel, y, 0.0, first)
    t = 0.0
    h = min(_H_MAX, span, tol ** (1 / 8))
    # the dense output: per accepted step its start t0, its step and, in
    # one (steps, 8, n) store, y and the 7 dense rows.  The store starts
    # with as many steps as fit in _SAMPLE_BLOCK entries (one at least) and
    # doubles when full: a d=2, K=8 flow over pi/4 takes 4 or 5 steps, and
    # a first capacity of 16 steps (1 MB there) raised the flow
    # benchmark's peak RSS
    starts: list[float] = []
    sizes: list[float] = []
    store = np.empty((max(1, _SAMPLE_BLOCK // (8 * n)), 8, n), dtype=complex)
    max_renorm = 0.0
    accepted = rejected = 0
    err_tol = _SAFETY * tol

    while True:
        remaining = abs(t_end - t)
        if remaining <= _END_SLACK * max(1.0, span):
            break
        if accepted + rejected == _MAX_STEPS:
            raise IntegrationError(
                f"step budget of {_MAX_STEPS} steps exhausted at t={t}"
            )
        h = min(h, remaining, _H_MAX)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        step = math.copysign(h, t_end)
        np.multiply(step, _A_REV, out=coef_h)
        z_new = _lawson_stages(kernel, step_plan, step)
        # scale = SAFETY tol (1 + max(|y|, |y_new|)), and |y_new| = |z_new|
        # entrywise: the frame only turns phases
        np.abs(z_new, out=scale)
        np.maximum(abs_y, scale, out=scale)
        scale += 1.0
        scale *= err_tol
        # combined 5th/3rd-order estimate of dop853.f, on Python floats
        np.matmul(_ERR, error_stages, out=err)
        err /= scale
        np.conjugate(err, out=err_conj)
        e5, e3 = np.einsum("ij,ij->i", err, err_conj).real.tolist()
        err_norm = h * e5 / math.sqrt(n * (e5 + 0.01 * e3)) if e5 > 0.0 else 0.0
        if err_norm > 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * err_norm ** (-1 / 8))
            continue

        _lawson_stages(kernel, dense_plan, step)
        if accepted == len(store):
            grown = np.empty((2 * accepted, 8, n), dtype=complex)
            grown[:accepted] = store
            store = grown
        segment = store[accepted]
        segment[0] = y
        np.matmul(_DENSE, stages, out=segment[1:])
        segment[1:] *= step
        starts.append(t)
        sizes.append(step)

        back = np.exp(-1j * step * levels)[level_of]  # e^{-iN step}
        y = back * z_new
        # np.linalg.norm's own expression for a complex vector
        re, im = y.real, y.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        renorm = abs(norm - 1.0)
        max_renorm = max(max_renorm, renorm)
        if renorm > 10.0 * tol:
            raise IntegrationError(
                f"sphere projection {renorm:.3e} exceeded 10*tol at t={t}"
            )
        y /= norm
        zk[16] = y
        np.abs(y, out=abs_y)
        # FSAL: rotate z'(h) back to the next frame's z'(0), out of the slot
        # the next step overwrites (projection perturbs it below the local
        # tolerance)
        np.multiply(back, last, out=first)
        t += step
        accepted += 1
        if err_norm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** (-1 / 8)))
        else:
            h *= 5.0

    dense = _DenseOutput(np.array(starts), np.array(sizes), store[:accepted],
                         levels, level_of)
    # the table of sampled states, in the order of the sorted times, filled
    # a block of rows at a time so that every temporary of the tail stays
    # small; the states are read-only row views of it
    units = np.empty((count, n), dtype=complex)
    norms, mean_n, energy = np.empty(count), np.empty(count), np.empty(count)
    rows = max(1, _SAMPLE_BLOCK // n)
    which = _segment_of(dense, sample_t)
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        unit = units[block]
        _interp_raw(dense, sample_t[block], which[block], out=unit)
        # t = 0 and any t not on t_end's side of 0 read y0 (t * t_end may underflow)
        unit[np.sign(sample_t[block]) != np.sign(t_end)] = y0
        norms[block], mean_n[block], energy[block] = _unit_figures(table, unit)
    units.flags.writeable = False
    # the initial figures are those of a sample at t = 0
    _, initial_mean_n, initial_energy = _unit_figures(table, y0[None].copy())
    return Trajectory(
        cutoff=cutoff,
        times=sample_t,
        states=tuple(fock._vector(cutoff, row, False) for row in units),
        conserved=ConservedSamples(norm=norms, mean_n=mean_n, energy=energy),
        initial_mean_n=float(initial_mean_n[0]),
        initial_energy=float(initial_energy[0]),
        max_renormalization=max_renorm,
        accepted_steps=accepted,
        rejected_steps=rejected,
        _dense=dense,
    )


def _unit_figures(table: fock.LadderTable, unit: np.ndarray):
    """Scale the rows of ``unit`` to norm one in place; return their norms
    before, <N> and energies.  <N> is a sequential sum in basis order, as
    numpy's matrix-vector loop sums a strided operand of two rows or more,
    so that a row's bits do not depend on the rows beside it."""
    norms = np.linalg.norm(unit, axis=1)
    unit /= norms[:, None]
    mean_n = np.cumsum((unit * unit.conj()).real * table.n_diag, axis=1)[:, -1]
    return norms, mean_n, hamiltonian.energy_array(table, unit)


def _segment_of(dense: _DenseOutput, t: np.ndarray) -> np.ndarray:
    """The index of the segment that reads each time in t: the last one
    starting at or before it (the first one before the window), searched
    on |t0| and |t|, as every start has t_end's sign."""
    return np.maximum(np.searchsorted(np.abs(dense.t0), np.abs(t), side="right") - 1, 0)


def _interp_raw(dense: _DenseOutput, t: np.ndarray, which: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Dense output at the signed times t, one row per time, from the
    segments ``which``: e^{-iN (t - t0)} z, where
    z = y + theta (c0 + (1 - theta) (c1 + theta (c2 + ...))) is the
    alternating Horner scheme of ``dop853.f``'s contd8, run on all rows at
    once and written into ``out`` when given, theta = (t - t0) / h for the
    segment's signed step h.  N takes the values ``dense.levels``, so one
    exponential per time and distinct value of N gives the phases.  Each
    row of the scheme is gathered from the store with the one index
    ``which``, so no temporary is larger than the times' (times, n) rows."""
    rows = dense.rows
    lag = t - dense.t0[which]
    theta = (lag / dense.h[which])[:, None]
    rest = 1.0 - theta
    acc = np.multiply(rows[which, 7], theta, out=out)
    for r in range(6, 0, -1):
        acc += rows[which, r]
        acc *= theta if r % 2 else rest
    acc += rows[which, 0]
    phase = np.exp(-1j * lag[:, None] * dense.levels)[:, dense.level_of]
    return np.multiply(phase, acc, out=acc)


def conserved_drift(traj: Trajectory) -> DriftRecord:
    """Maximum deviation of norm, excitation mean, and energy from their
    values at the initial state."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    return DriftRecord(
        norm=float(np.max(np.abs(traj.conserved.norm - 1.0))),
        mean_n=float(np.max(np.abs(traj.conserved.mean_n - traj.initial_mean_n))),
        energy=float(np.max(np.abs(traj.conserved.energy - traj.initial_energy))),
    )
