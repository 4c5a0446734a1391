"""Independent reference values and the machinery that produced them.

The frozen constants below were computed with the adaptive-quadrature /
root-finding pipeline in this module (scipy.integrate.quad at 1e-13
tolerances, cross-checked against 40-digit mpmath evaluation of the same
integrals; the 2-D constants with scipy.integrate.dblquad at 1e-13).
Entropies are -int rho log rho, integrated directly rather than taken from
F + <U>. They are deliberately computed with none of the package's own
quadrature or Newton code, so round trips against them are genuine two-route
checks. Re-run ``python tests/oracles.py`` to regenerate.
"""

import functools
import itertools
import operator

import numpy as np
from scipy import integrate, optimize

# --- 1-D quartic theory, A = a, U(x) = eps * x^4 / 8 (coupling v = 1) ------

#: Z at a = 1, eps = 1
Z_QUARTIC_1D = 2.1019609161655169959
#: Omega = -log Z at a = 1, eps = 1
OMEGA_QUARTIC_1D = -0.74287067864037169882
#: <x^2> at a = 1, eps = 1
GREEN_QUARTIC_1D = 0.57920477263848011613
#: A[G = 1]: the coefficient whose density has unit second moment (eps = 1)
A_OF_UNIT_G = -0.078528144127357873993
#: Omega at A[G = 1]
OMEGA_AT_A_OF_UNIT_G = -1.1531264376319553017
#: F[G = 1] = A[G]/2 - Omega
F_AT_UNIT_G = 1.1138623655682763647
#: Phi[G = 1] = 2 F - log(2 pi e)
PHI_AT_UNIT_G = -0.61015233527279275416
#: Sigma[G = 1] = A[G] - 1
SIGMA_AT_UNIT_G = -1.078528144127357874
#: <U> under the maximizing density at G = 1
MEAN_U_AT_UNIT_G = 0.2696320360318394685
#: entropy -int rho log rho of the maximizing density at G = 1; it agrees
#: with F + <U> from the constants above to about 2e-16
ENTROPY_AT_UNIT_G = 1.3834944016001158
#: A[G = 1] at interaction strength eps = 0.01
A_OF_UNIT_G_EPS001 = 0.98514371067769439281
#: Sigma[G = 1] at eps = 0.01
SIGMA_AT_UNIT_G_EPS001 = -0.014856289322305607189


# --- 2-D coupled quartic theory with an indefinite A -------------------------
# A = A_2D, U(x) = (1/8) sum_ij V_2D[i, j] x_i^2 x_j^2; lambda_min(A) < 0, so
# the package's quadrature runs on its repaired (lifted) envelope.

A_2D = ((1.0, 0.3), (0.3, -0.2))
V_2D = ((1.0, 0.5), (0.5, 1.0))
#: Omega = -log Z for (A_2D, V_2D)
OMEGA_QUARTIC_2D = -1.9129600247124212
#: G = <x x'> for (A_2D, V_2D)
GREEN_QUARTIC_2D = (
    (0.541263255735179, -0.14319320642537842),
    (-0.14319320642537842, 1.0216308208350662),
)
#: entropy -int rho log rho and <U> for (A_2D, V_2D)
ENTROPY_QUARTIC_2D = 2.4757153166406565
MEAN_U_QUARTIC_2D = 0.4372447080717654
#: F = S - <U>; the Legendre form Tr[A_2D G]/2 - Omega agrees to 4.4e-16
F_QUARTIC_2D = 2.038470608568891


def quartic_z(a: float, eps: float = 1.0) -> float:
    """Z(a) = int exp(-a x^2 / 2 - eps x^4 / 8) dx by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda x: np.exp(-0.5 * a * x * x - eps * x**4 / 8.0),
        -np.inf,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return val


def quartic_moment(a: float, k: int, eps: float = 1.0) -> float:
    """<x^k> under the normalized 1-D quartic density."""
    val, _ = integrate.quad(
        lambda x: x**k * np.exp(-0.5 * a * x * x - eps * x**4 / 8.0),
        -np.inf,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return val / quartic_z(a, eps)


def quartic_a_of_g(g: float, eps: float = 1.0, bracket=(-6.0, 6.0)) -> float:
    """Root-solve <x^2>_a = g for a (independent of the package's Newton)."""
    return optimize.brentq(
        lambda a: quartic_moment(a, 2, eps) - g,
        *bracket,
        xtol=1e-14,
        rtol=8.9e-16,
    )


def quartic_lw_reference(g: float, eps: float = 1.0, bracket=(-6.0, 6.0)) -> dict:
    """A[G], Omega, F, Phi, Sigma for the scalar quartic theory."""
    a = quartic_a_of_g(g, eps, bracket)
    omega = -np.log(quartic_z(a, eps))
    f = 0.5 * a * g - omega
    phi = 2.0 * f - np.log(g) - np.log(2.0 * np.pi * np.e)
    return {"a": a, "omega": omega, "f": f, "phi": phi, "sigma": a - 1.0 / g}


def quartic_entropy(a: float, eps: float = 1.0) -> float:
    """-int rho log rho of the normalized 1-D quartic density, by adaptive quadrature.

    log rho = -a x^2 / 2 - eps x^4 / 8 - log Z is taken point by point, so no
    moment or Legendre identity enters.
    """
    log_z = np.log(quartic_z(a, eps))

    def minus_rho_log_rho(x):
        log_rho = -0.5 * a * x * x - eps * x**4 / 8.0 - log_z
        return -np.exp(log_rho) * log_rho

    val, _ = integrate.quad(
        minus_rho_log_rho, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400
    )
    return val


def _quartic_2d_log_weight(a, v):
    """x -> (-x'Ax/2 - U(x), U(x)) of the 2-D theory, in dblquad's (x2, x1) order."""
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)

    def log_weight(x2, x1):
        quad = a[0, 0] * x1 * x1 + 2.0 * a[0, 1] * x1 * x2 + a[1, 1] * x2 * x2
        quartic = v[0, 0] * x1**4 + 2.0 * v[0, 1] * x1 * x1 * x2 * x2 + v[1, 1] * x2**4
        return -0.5 * quad - quartic / 8.0, quartic / 8.0

    return log_weight


def _box_integral(f, box: float) -> float:
    val, _ = integrate.dblquad(f, -box, box, -box, box, epsabs=1e-14, epsrel=1e-13)
    return val


def quartic_2d_moments(a, v, box: float = 10.0):
    """(Omega, G) of exp(-x'Ax/2 - (1/8) sum_ij v_ij x_i^2 x_j^2) in two dimensions.

    Nested adaptive quadrature (scipy.integrate.dblquad) over the square
    |x_i| <= box, outside which the quartic tail leaves nothing at double
    precision for couplings of order one.
    """
    log_weight = _quartic_2d_log_weight(a, v)

    def density(x2, x1):
        return np.exp(log_weight(x2, x1)[0])

    def integral(f):
        return _box_integral(f, box)

    z = integral(density)
    g11 = integral(lambda x2, x1: x1 * x1 * density(x2, x1)) / z
    g12 = integral(lambda x2, x1: x1 * x2 * density(x2, x1)) / z
    g22 = integral(lambda x2, x1: x2 * x2 * density(x2, x1)) / z
    return -np.log(z), np.array([[g11, g12], [g12, g22]])


def quartic_2d_entropy(a, v, box: float = 10.0):
    """(S, <U>) of the 2-D theory of ``quartic_2d_moments``, S = -int rho log rho.

    log rho = -x'Ax/2 - U(x) - log Z is taken point by point over the same
    box; F = S - <U> then follows with no Legendre identity.
    """
    log_weight = _quartic_2d_log_weight(a, v)
    log_z = np.log(_box_integral(lambda x2, x1: np.exp(log_weight(x2, x1)[0]), box))

    def minus_rho_log_rho(x2, x1):
        log_rho = log_weight(x2, x1)[0] - log_z
        return -np.exp(log_rho) * log_rho

    def u_rho(x2, x1):
        log_w, u = log_weight(x2, x1)
        return u * np.exp(log_w - log_z)

    return _box_integral(minus_rho_log_rho, box), _box_integral(u_rho, box)


# --- the tensor Gauss-Hermite grid for N(0, I) --------------------------------


def hermite_grid(n: int, nodes: int):
    """(y, log p) of every point of the n-axis Gauss-Hermite grid for N(0, I), row-major.

    Built point by point with itertools.product over numpy's 1-D rule: nodes
    sqrt(2) t, probabilities w / sqrt(pi), and log p summed over the axes
    from left to right, ((l0 + l1) + l2).
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    y1 = (np.sqrt(2.0) * t).tolist()
    logp1 = (np.log(w) - 0.5 * np.log(np.pi)).tolist()
    y = np.array(list(itertools.product(y1, repeat=n)))
    logp = np.array(
        [functools.reduce(operator.add, point) for point in itertools.product(logp1, repeat=n)]
    )
    return y, logp


def grid_moments(a, u, nodes: int, floor: float = 0.5):
    """(Omega, G, pair block) of exp(-x'Ax/2 - U(x)) summed over every point of ``hermite_grid``.

    The unfolded grid in one piece with one shift, so no point is left out:
    the reference for the oracle's folded, chunked and screened sums. The
    envelope is B = A + lift I with lift = max(0, floor - lambda_min(A)),
    the one for a confining U, and x = L^-T y for B = L L'. The pair block
    is <x_i x_j x_k x_l> over the pairs i <= j in the order of
    itertools.combinations_with_replacement.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    lift = max(0.0, floor - np.linalg.eigvalsh(a)[0])
    low = np.linalg.cholesky(a + lift * np.eye(n))
    y, logp = hermite_grid(n, nodes)
    x = np.linalg.solve(low.T, y.T).T
    log_w = logp + 0.5 * lift * (x * x).sum(axis=1) - u.evaluate(x)
    shift = log_w.max()
    w = np.exp(log_w - shift)
    total = w.sum()
    log_z = 0.5 * n * np.log(2.0 * np.pi) - np.log(np.diag(low)).sum() + shift + np.log(total)
    green = np.einsum("m,mi,mj->ij", w, x, x) / total
    pairs = np.stack(
        [x[:, i] * x[:, j] for i, j in itertools.combinations_with_replacement(range(n), 2)],
        axis=1,
    )
    return -log_z, green, np.einsum("m,mp,mq->pq", w, pairs, pairs) / total


# --- transfer matrices for nearest-neighbour rings ---------------------------


def ring_matrices(n: int, a_site: float, a_bond: float, v_site: float, v_bond: float):
    """(A, v) of a translation-invariant ring of n >= 3 sites, nearest neighbours only."""
    bonds = np.roll(np.eye(n), 1, axis=1)
    bonds = bonds + bonds.T
    return a_site * np.eye(n) + a_bond * bonds, v_site * np.eye(n) + v_bond * bonds


def ring_moments(a, v, points: int = 121, half_width: float = 7.0):
    """(Omega, G) of exp(-x'Ax/2 - (1/8) sum_ij v_ij x_i^2 x_j^2) on a ring, by transfer matrices.

    When A and v couple only sites i and i + 1 (mod n, n >= 3), the integrand
    is a product of bond factors, so Z = Tr(M_0 M_1 ... M_{n-1}) with
    M_i(s, t) = h exp(-A_ii s^2 / 2 - v_ii s^4 / 8 - A_{i,i+1} s t
    - v_{i,i+1} s^2 t^2 / 4) on ``points`` equally spaced values in
    [-half_width, half_width], h their spacing (Kramers and Wannier, Phys.
    Rev. 60, 252, 1941). The trapezoid rule converges exponentially for these
    analytic, fast-decaying integrands. G_ij inserts diag(s) before M_i and
    M_j. Each M_i is scaled by its largest entry, whose log goes into Omega.
    No Gauss-Hermite rule, envelope or Newton step enters.
    """
    a, v = np.asarray(a, dtype=float), np.asarray(v, dtype=float)
    n = a.shape[0]
    ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    beyond = ~(np.eye(n, dtype=bool) | ring | ring.T)
    assert n >= 3 and not np.any(a[beyond]) and not np.any(v[beyond])
    s = np.linspace(-half_width, half_width, points)
    h = s[1] - s[0]
    mats, log_scale = [], 0.0
    for i in range(n):
        j = (i + 1) % n
        site = -0.5 * a[i, i] * s**2 - v[i, i] * s**4 / 8.0
        log_m = site[:, None] - a[i, j] * np.outer(s, s) - v[i, j] * np.outer(s * s, s * s) / 4.0
        top = log_m.max()
        mats.append(h * np.exp(log_m - top))
        log_scale += top
    # suffix[i] = M_i ... M_{n-1}, suffix[n] = I
    suffix = [np.eye(points)] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = mats[i] @ suffix[i + 1]
    z = np.trace(suffix[0])
    green = np.empty((n, n))
    prefix = np.eye(points)  # M_0 ... M_{i-1}
    for i in range(n):
        run = prefix * s  # ... M_{i-1} diag(s)
        for j in range(i, n):
            # Tr(run diag(s) M_j ... M_{n-1}), run = M_0 ... diag(s) M_i ... M_{j-1}
            green[i, j] = green[j, i] = np.sum((run * s) * suffix[j].T) / z
            run = run @ mats[j]
        prefix = prefix @ mats[i]
    return -(np.log(z) + log_scale), green


# --- bold vacuum diagrams of a diagonal quartic coupling ---------------------


def vacuum_phi(g: np.ndarray, v: np.ndarray, order: int) -> float:
    """Phi^(k), k = 1, 2, summed index by index from Wick's theorem.

    First order: tadpole and exchange contractions of one vertex; second
    order: ring and exchange contractions of two. No self-energy is formed.
    """
    if order == 1:
        return -0.25 * np.einsum("ij,ii,jj->", v, g, g) - 0.5 * np.einsum("ij,ij,ij->", v, g, g)
    ring = np.einsum("ik,jl,ij,ij,kl,kl->", v, v, g, g, g, g)
    exchange = np.einsum("ik,jl,ij,kj,kl,li->", v, v, g, g, g, g)
    return 0.125 * ring + 0.25 * exchange


# --- Dyson self-consistency by plain damped iteration -------------------------


def damped_dyson(a, sigma_of, green, damping=0.5, tol=1e-10, max_iter=500):
    """(G, steps) of G <- (1 - damping) G + damping (A - Sigma[G])^-1 from ``green``.

    The textbook damped fixed point, with no history and no cone guard: the
    reference the Anderson-mixed solver is compared against. ``sigma_of``
    maps a Green's function array to its self-energy array; the loop stops
    when ||G^-1 - (A - Sigma[G])||_F <= tol.
    """
    a, green = np.asarray(a, dtype=float), np.asarray(green, dtype=float)
    for step in range(1, max_iter + 1):
        m = a - sigma_of(green)
        if np.linalg.norm(np.linalg.inv(green) - m) <= tol:
            return green, step
        green = (1.0 - damping) * green + damping * np.linalg.inv(m)
    raise RuntimeError(f"damped Dyson iteration did not converge in {max_iter} steps")


def frozen_1d() -> dict:
    """The 1-D frozen constants of this module, recomputed by its own pipeline, by name."""
    ref = quartic_lw_reference(1.0)
    mean_u = quartic_moment(ref["a"], 4) / 8.0
    # at weak coupling a negative a overflows the integrand; A[G] is near 1
    ref001 = quartic_lw_reference(1.0, eps=0.01, bracket=(0.5, 1.5))
    return {
        "Z_QUARTIC_1D": quartic_z(1.0),
        "OMEGA_QUARTIC_1D": -np.log(quartic_z(1.0)),
        "GREEN_QUARTIC_1D": quartic_moment(1.0, 2),
        "A_OF_UNIT_G": ref["a"],
        "OMEGA_AT_A_OF_UNIT_G": ref["omega"],
        "F_AT_UNIT_G": ref["f"],
        "PHI_AT_UNIT_G": ref["phi"],
        "SIGMA_AT_UNIT_G": ref["sigma"],
        "MEAN_U_AT_UNIT_G": mean_u,
        "ENTROPY_AT_UNIT_G": quartic_entropy(ref["a"]),
        "A_OF_UNIT_G_EPS001": ref001["a"],
        "SIGMA_AT_UNIT_G_EPS001": ref001["sigma"],
    }


def _regenerate():
    values = frozen_1d()
    for name, value in values.items():
        print(f"{name:22}=", repr(float(value)))
    excess = values["ENTROPY_AT_UNIT_G"] - values["F_AT_UNIT_G"] - values["MEAN_U_AT_UNIT_G"]
    print("  entropy minus (F + <U>) =", repr(float(excess)))
    omega_2d, green_2d = quartic_2d_moments(A_2D, V_2D)
    print("OMEGA_QUARTIC_2D      =", repr(float(omega_2d)))
    print("GREEN_QUARTIC_2D      =", repr(green_2d.tolist()))
    entropy_2d, mean_u_2d = quartic_2d_entropy(A_2D, V_2D)
    print("ENTROPY_QUARTIC_2D    =", repr(entropy_2d))
    print("MEAN_U_QUARTIC_2D     =", repr(mean_u_2d))
    print("F_QUARTIC_2D          =", repr(entropy_2d - mean_u_2d))
    legendre = 0.5 * np.sum(np.asarray(A_2D) * green_2d) - omega_2d
    print("  minus Legendre F    =", repr(float(entropy_2d - mean_u_2d - legendre)))


if __name__ == "__main__":
    _regenerate()
