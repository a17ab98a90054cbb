"""The Weber functions, gamma2 and the identity suite in mpmath complex
arithmetic: the oracle for supercong.highprec's Gaussian binary values.

Each eta comes from eta_num (one mpc of prec + 32 bits), and every quotient,
power and residual is an mpc operation at mpmath's working precision.  The
suite draws the same points as highprec.identity_suite, so the two can be
compared identity by identity.
"""

import random

import mpmath
from mpmath import mp

from supercong import highprec
from supercong.highprec import eta_num


def norm(z) -> mpmath.mpf:
    """|z|^2 of an int, mpf or mpc, without a square root."""
    return z.real * z.real + z.imag * z.imag


def residual(diff, *sides) -> mpmath.mpf:
    """|diff|^2 over the largest |side|^2: the squared residual relative to
    the sides compared."""
    return norm(diff) / max(map(norm, sides))


class MpcEta:
    """eta_num at one precision with the Weber functions and gamma2 as mpc
    quotients; use inside mp.workprec(prec + 32)."""

    def __init__(self, prec: int):
        self.prec = prec
        self.sqrt2 = mpmath.sqrt(2)
        self.zeta48_inv = mpmath.expjpi(mpmath.mpf(-1) / 24)

    def __call__(self, tau):
        return eta_num(tau, self.prec)

    def weber(self, tau, which: str):
        if which == "f":
            return self.zeta48_inv * self((tau + 1) / 2) / self(tau)
        if which == "f1":
            return self(tau / 2) / self(tau)
        return self.sqrt2 * self(2 * tau) / self(tau)

    def gamma2(self, tau):
        f8 = self.weber(tau, "f") ** 8
        return (f8**3 - 16) / f8


def identity_suite(samples: int, prec: int, seed: int = 12345) -> dict[str, tuple[bool, mpmath.mpf]]:
    """{identity: (verdict, worst squared residual)} over the points that
    highprec.identity_suite(samples, prec, seed) draws."""
    rng = random.Random(seed)
    worst: dict[str, mpmath.mpf] = {}

    def note(name, left, right):
        worst[name] = max(worst.get(name, 0), residual(left - right, left, right))

    with mp.workprec(prec + 32):
        eta = MpcEta(prec)
        weber, sqrt2 = eta.weber, eta.sqrt2
        zeta24 = mpmath.expjpi(mpmath.mpf(1) / 12)
        omega = (-1 + mpmath.sqrt(-3)) / 2
        for _ in range(samples):
            tau = highprec._random_tau(rng)
            e_tau = eta(tau)
            inv_tau = -1 / tau
            note("eta-shift", eta(tau + 1), zeta24 * e_tau)
            note("eta-inversion", eta(inv_tau), mpmath.sqrt(-1j * tau) * e_tau)
            a, b, c, d = highprec._random_gamma0_4(rng)
            sign, k = highprec._eta_mult_gamma0_4(a, b, c, d)
            note("eta-gamma0(4)", eta((a * tau + b) / (c * tau + d)),
                 sign * zeta24**k * mpmath.sqrt(c * tau + d) * e_tau)

            f, f1, f2 = (weber(tau, which) for which in ("f", "f1", "f2"))
            note("f*f1*f2=sqrt2", f * f1 * f2, sqrt2)
            note("f1(2t)f2(t)=sqrt2", weber(2 * tau, "f1") * f2, sqrt2)
            note("f(-1/t)=f(t)", weber(inv_tau, "f"), f)
            note("f1(-1/t)=f2(t)", weber(inv_tau, "f1"), f2)
            note("f2(-1/t)=f1(t)", weber(inv_tau, "f2"), f1)
            note("f(t+1)=z48^-1 f1", weber(tau + 1, "f"), eta.zeta48_inv * f1)

            x, y = rng.uniform(-1.5, 1.5), rng.uniform(0.6, 1.8)
            for which in ("f", "f1", "f2"):
                note("conjugation", mpmath.conj(weber(mpmath.mpc(x, y), which)),
                     weber(mpmath.mpc(-x, y), which))

            g2 = eta.gamma2(tau)
            x0, x1, x2 = -(f**8), f1**8, f2**8
            worst["cubic-sum"] = max(worst.get("cubic-sum", 0),
                                     residual(x0 + x1 + x2, x0, x1, x2))
            note("cubic-product", x0 * x1 * x2, -16)
            note("cubic-pairsum", x0 * x1 + x0 * x2 + x1 * x2, -g2)

            a, b, c, d = highprec._random_sl2(rng)
            g2m = eta.gamma2((a * tau + b) / (c * tau + d))
            expo = (a * c - a * b + a * a * c * d - c * d) % 3
            note("gamma2-transform", g2m, omega**expo * g2)

        note("f1(sqrt-2)^2", weber(mpmath.mpc(0, sqrt2), "f1") ** 2, sqrt2)
        tau7 = mpmath.mpc(0, mpmath.sqrt(7))
        note("gamma2(sqrt-7)=255", eta.gamma2(tau7), 255)
        roots = sorted([mpmath.re(-weber(tau7, "f") ** 8), mpmath.re(weber(tau7, "f1") ** 8),
                        mpmath.re(weber(tau7, "f2") ** 8)])
        root7 = 3 * mpmath.sqrt(7)
        for r, e in zip(roots, [mpmath.mpf(-16), 8 - root7, 8 + root7]):
            note("cubic-roots(sqrt-7)", r, e)

        tol2 = mpmath.mpf(2) ** (-2 * (prec // 2))
        return {name: (r < tol2, r) for name, r in worst.items()}
