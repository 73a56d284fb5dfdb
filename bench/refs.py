"""Reference values for the benchmark checks, computed apart from mekit.

Every channel is rebuilt here from its definition (a gamma law, the maximum
of iid exponentials, a sum of independent branches, a damped oscillation),
never from mekit's ``(x, Y, z)`` triples.  A channel is held as the partial
fraction expansion of its Laplace transform,

    L(s) = sum_k c_k / (s + a_k)^n_k ,

in mpmath at ``DPS`` digits plus three per unit of order, which covers the
cancellation between the large coefficients of high-multiplicity poles;
``Channel.cdf`` redoes a sum that cancelled more digits than it carried at
twice the precision.  Inverting it term by term is exact, so the
cdf, survival function, density and k-fold convolution cdfs follow in
closed form; this is the exact counterpart of Talbot inversion and, unlike
Talbot's contour, also holds for the complex poles of ``oscillatory_ex2``
(``test_checks.py`` compares the two on real-pole channels).  Closed forms
from ``scipy.special`` are used where they exist: ``gammainc`` and
``gammaincinv`` for the Erlang family, ``exp1`` for the Rayleigh ergodic
capacity and ``lambertw`` for the Rayleigh ARQ optimum ``R e^R = S``.
Integrals with no closed form (ergodic and effective capacity, BER, PEP,
entropy, the 2x2 Wishart outage region) use ``mpmath.quad``.

Nothing here is timed: references are computed before a run's timed loop
and kept in memory.  The module imports neither mekit nor numpy.
"""

from __future__ import annotations

import math

import mpmath as mp
from scipy.special import exp1, gammainc, gammaincinv, lambertw

DPS = 50
# integrands: 20 digits are plenty for double-precision checks
QUAD_DPS = 20


def _key(a):
    """Poles equal to double precision are one pole: the channel parameters
    are doubles, so closer poles are not resolved by the inputs anyway."""
    return (float(mp.re(a)), float(mp.im(a)))


def _merge(terms):
    """Collect terms with the same pole and order."""
    acc = {}
    for c, a, n in terms:
        k = (_key(a), n)
        if k in acc:
            acc[k][0] += c
        else:
            acc[k] = [c, a, n]
    return [(c, a, n) for c, a, n in acc.values() if c != 0]


def _mul_terms(t1, t2):
    """Partial fractions of the product of two transforms."""
    out = []
    for c1, a, m in t1:
        for c2, b, n in t2:
            c = c1 * c2
            if _key(a) == _key(b):
                out.append((c, a, m + n))
                continue
            for i in range(m):
                out.append((c * (-1) ** i * mp.binomial(n + i - 1, i)
                            / (b - a) ** (n + i), a, m - i))
            for i in range(n):
                out.append((c * (-1) ** i * mp.binomial(m + i - 1, i)
                            / (a - b) ** (m + i), b, n - i))
    return _merge(out)


def _time_product(t1, t2):
    """Time-domain product of two functions held as transform terms:
    t^{m-1} e^{-at}/(m-1)! times t^{n-1} e^{-bt}/(n-1)!."""
    out = []
    for c1, a, m in t1:
        for c2, b, n in t2:
            scale = mp.factorial(m + n - 2) / (mp.factorial(m - 1) * mp.factorial(n - 1))
            out.append((c1 * c2 * scale, a + b, m + n - 1))
    return _merge(out)


def _sf_to_pdf(sf):
    """pdf = -d/dt sf, in transform terms (the constants cancel to 0)."""
    out = []
    for c, a, n in sf:
        out.append((a * c, a, n))
        if n >= 2:
            out.append((-c, a, n - 1))
    return _merge(out)


def _pdf_to_sf(pdf):
    """sf(t) = int_t^inf pdf, term by term."""
    out = []
    for c, a, n in pdf:
        for i in range(n):
            out.append((c * a ** (i - n), a, i + 1))
    return _merge(out)


def _eval_time(terms, t):
    t = mp.mpf(t)
    return mp.re(mp.fsum(c * t ** (n - 1) * mp.exp(-a * t) / mp.factorial(n - 1)
                         for c, a, n in terms))


class Channel:
    """A channel law as the partial fractions of its transform.

    ``erlang`` is ``(shape, rate)`` when the law is a gamma law with
    integer shape, which enables the ``scipy.special`` closed forms.
    """

    def __init__(self, pdf_terms, erlang=None, dps=DPS):
        self.pdf_terms = _merge(pdf_terms)
        self.erlang = erlang
        self.dps = dps
        self.spec = None
        self._finer = None
        self._sf = None
        self._powers = {1: self.pdf_terms}

    @property
    def sf_terms(self):
        if self._sf is None:
            self._sf = _pdf_to_sf(self.pdf_terms)
        return self._sf

    @property
    def order(self) -> int:
        poles = {}
        for _, a, n in self.pdf_terms:
            poles[_key(a)] = max(poles.get(_key(a), 0), n)
        return sum(poles.values())

    def power(self, k):
        """Transform terms of the k-fold convolution."""
        if k not in self._powers:
            with mp.workdps(self.dps):
                self._powers[k] = _mul_terms(self.power(k - 1), self.pdf_terms)
        return self._powers[k]

    def fn(self, which):
        """``pdf`` or ``sf`` as a function of t at the caller's working
        precision, for integrands (the full precision is not needed there)."""
        terms = self.pdf_terms if which == "pdf" else self.sf_terms
        pre = [(+c / mp.factorial(n - 1), +a, n - 1) for c, a, n in terms]
        return lambda t: mp.re(mp.fsum(c * t ** k * mp.exp(-a * t) for c, a, k in pre))

    def lt(self, s):
        with mp.workdps(self.dps):
            s = mp.mpmathify(s)
            v = mp.fsum(c / (s + a) ** n for c, a, n in self.pdf_terms)
            return v if isinstance(s, mp.mpc) else mp.re(v)

    def pdf(self, t):
        with mp.workdps(self.dps):
            return _eval_time(self.pdf_terms, t)

    def sf(self, t):
        with mp.workdps(self.dps):
            return _eval_time(self.sf_terms, t)

    def cdf(self, t, k=1):
        """P(Z_1 + ... + Z_k <= t)."""
        if self.erlang is not None:
            m, rate = self.erlang
            return mp.mpf(float(gammainc(k * m, rate * t)))
        with mp.workdps(self.dps):
            t = mp.mpf(t)
            parts = []
            for c, a, n in self.power(k):
                at = a * t
                term, tail = mp.mpf(1), mp.mpf(1)
                for i in range(1, n):
                    term *= at / i
                    tail += term
                parts.append(c / a ** n * (1 - mp.exp(-at) * tail))
            total = mp.re(mp.fsum(parts))
            biggest = max(abs(p) for p in parts)
        if biggest <= abs(total) * mp.mpf(10) ** (self.dps - 25):
            return total
        if self.spec is None or self.dps > 2000:
            raise ArithmeticError("reference cdf cancelled below 25 digits")
        if self._finer is None:
            self._finer = build(self.spec, 2 * self.dps)
        return self._finer.cdf(t, k)

    def mean(self):
        with mp.workdps(self.dps):
            return mp.re(mp.fsum(c / a ** n for c, a, n in self.sf_terms))

    def moment(self, k):
        """E[Z^k] = k! (-1)^k d^k/ds^k L at 0, term by term."""
        with mp.workdps(self.dps):
            return mp.re(mp.fsum(c * mp.rf(n, k) / a ** (n + k)
                                 for c, a, n in self.pdf_terms))

    def polys(self, N=1):
        """(P, Q) with L(s)^N = P(s)/Q(s), ascending mpmath coefficients."""
        poles = {}
        for _, a, n in self.pdf_terms:
            k = _key(a)
            poles[k] = (a, max(poles.get(k, (a, 0))[1], n))
        Q = [mp.mpf(1)]
        for a, n in poles.values():
            for _ in range(n):
                Q = _poly_mul(Q, [a, 1])
        P = [mp.mpf(0)] * len(Q)
        for c, a, n in self.pdf_terms:
            rest = [mp.mpf(1)]
            for b, m in poles.values():
                for _ in range(m - (n if _key(b) == _key(a) else 0)):
                    rest = _poly_mul(rest, [b, 1])
            for i, v in enumerate(rest):
                P[i] += c * v
        PN, QN = [mp.mpf(1)], [mp.mpf(1)]
        for _ in range(N):
            PN, QN = _poly_mul(PN, P), _poly_mul(QN, Q)
        return PN, QN


def _poly_mul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _poly_eval(p, s):
    return mp.polyval(list(reversed(p)), s)


def _poly_deriv(p):
    return [i * c for i, c in enumerate(p)][1:]


# -- channel constructors from their definitions ------------------------------


def erlang(m, rate, dps=DPS):
    with mp.workdps(dps):
        rate = mp.mpf(rate)
        return Channel([(rate ** m, rate, int(m))], erlang=(int(m), float(rate)), dps=dps)


def sdc(N, S, dps=DPS):
    """Maximum of N iid exponentials of mean S: sf = 1 - (1 - e^{-t/S})^N."""
    with mp.workdps(dps):
        S = mp.mpf(S)
        sf = [((-1) ** (k + 1) * mp.binomial(N, k), k / S, 1) for k in range(1, N + 1)]
        return Channel(_sf_to_pdf(sf), dps=dps)


def oscillatory_ex2(dps=DPS):
    """Density (50/49)(1 - cos 7t) e^{-t}: poles -1 and -1 +- 7i."""
    with mp.workdps(dps):
        w = mp.mpf(25) / 49
        return Channel([(2 * w, mp.mpf(1), 1), (-w, mp.mpc(1, -7), 1),
                        (-w, mp.mpc(1, 7), 1)], dps=dps)


def convolution(parts, dps=DPS):
    """Sum of independent branches: product of transforms."""
    with mp.workdps(dps):
        terms = parts[0].pdf_terms
        for p in parts[1:]:
            terms = _mul_terms(terms, p.pdf_terms)
        rates = {p.erlang[1] for p in parts if p.erlang is not None}
        erl = None
        if len(rates) == 1 and all(p.erlang is not None for p in parts):
            erl = (sum(p.erlang[0] for p in parts), rates.pop())
        return Channel(terms, erlang=erl, dps=dps)


def maximum(d1, d2, dps=DPS):
    """sf_max = sf1 + sf2 - sf1 sf2 (product identity of the cdfs)."""
    with mp.workdps(dps):
        prod = _time_product(d1.sf_terms, d2.sf_terms)
        sf = _merge(d1.sf_terms + d2.sf_terms + [(-c, a, n) for c, a, n in prod])
        return Channel(_sf_to_pdf(sf), dps=dps)


def minimum(d1, d2, dps=DPS):
    """sf_min = sf1 sf2."""
    with mp.workdps(dps):
        return Channel(_sf_to_pdf(_time_product(d1.sf_terms, d2.sf_terms)), dps=dps)


def order(spec) -> int:
    """Order of the channel's transform, from its description."""
    kind, P = spec["kind"], spec.get("params", {})
    if kind == "rayleigh":
        return 1
    if kind == "nakagami":
        return P["m"]
    if kind == "ostbc_mrc":
        return P["N_tx"] * P["N_rx"]
    if kind == "zf_mimo":
        return P["exponent"]
    if kind == "sdc":
        return P["N"]
    if kind == "oscillatory_ex2":
        return 3
    if kind == "mrc_list":
        return sum(order(c) for c in P["components"])
    return 2 * sum(order(c) for c in spec["of"])


def build(spec, dps=None) -> Channel:
    """Reference law for a benchmark channel description."""
    dps = DPS + 3 * order(spec) if dps is None else dps
    ch = _build(spec, dps)
    ch.spec = spec
    return ch


def _build(spec, dps):
    kind, P = spec["kind"], spec.get("params", {})
    if kind == "rayleigh":
        return erlang(1, 1.0 / P["S"], dps)
    if kind == "nakagami":
        return erlang(P["m"], P["m"] / P["S"], dps)
    if kind == "ostbc_mrc":
        return erlang(P["N_tx"] * P["N_rx"], P.get("R_stc", 1.0) * P["N_tx"] / P["S"], dps)
    if kind == "zf_mimo":
        return erlang(P["exponent"], 1.0 / P["S"], dps)
    if kind == "sdc":
        return sdc(P["N"], P["S"], dps)
    if kind == "oscillatory_ex2":
        return oscillatory_ex2(dps)
    if kind == "mrc_list":
        return convolution([build(c, dps) for c in P["components"]], dps)
    if kind == "max":
        return maximum(build(spec["of"][0], dps), build(spec["of"][1], dps), dps)
    if kind == "min":
        return minimum(build(spec["of"][0], dps), build(spec["of"][1], dps), dps)
    raise ValueError(f"no reference for channel kind {kind!r}")


# -- metric references ----------------------------------------------------------


def outage(ch, theta):
    return float(ch.cdf(theta))


def arq(ch, R, theta):
    return float(R * (1 - ch.cdf(theta)))


def harq_truncated(ch, R, K, theta):
    with mp.workdps(ch.dps):
        F = [ch.cdf(theta, k) for k in range(1, K + 1)]
        return float(R * (1 - F[-1]) / (1 + mp.fsum(F[:-1])))


def renewal(ch, theta, N=1):
    """Mean number of renewals sum_k F_k(theta) of the transform L^N."""
    if ch.erlang is not None:
        m, rate = ch.erlang
        total, k = 0.0, 1
        while True:
            v = float(gammainc(k * m * N, rate * theta))
            total += v
            if v < 1e-20:
                return total
            k += 1
    # residues of e^{st} L^N / (s (1 - L^N)) = e^{st} P / (s^2 D1), D = Q - P = s D1
    with mp.workdps(ch.dps):
        P, Q = ch.polys(N)
        D = [q - p for p, q in zip(P + [0] * (len(Q) - len(P)), Q)]
        D1 = D[1:]
        t = mp.mpf(theta)
        dD1 = _poly_deriv(D1)
        total = t * P[0] / D1[0] + (P[1] * D1[0] - P[0] * D1[1]) / D1[0] ** 2
        roots = mp.polyroots(list(reversed(D1)), maxsteps=200, extraprec=4 * ch.dps)
        for r in roots:
            total += mp.exp(r * t) * _poly_eval(P, r) / (r ** 2 * _poly_eval(dD1, r))
        return float(mp.re(total))


def harq_persistent(ch, R, theta, N=1):
    return R / (1.0 + renewal(ch, theta, N))


def ber_noncoherent(ch, a):
    return float(ch.lt(a) / 2)


def ber_coherent(ch, a):
    """E[Q(sqrt(2 a Z))] = (1/pi) int_0^{pi/2} L(a / sin^2 t) dt (Craig form
    of Q averaged over Z)."""
    return pep([(ch, a)])


def eff_capacity_me_rate(ch, theta):
    return float(-mp.log(ch.lt(theta)) / theta)


def _breaks(ch):
    """Quadrature breakpoints: multiples of the mean, plus every half period
    of an oscillating density (where the integrands have their kinks)."""
    m = float(ch.mean())
    pts = {0.0, m / 2, m, 2 * m, 4 * m, 8 * m, 16 * m}
    for _, a, _ in ch.pdf_terms:
        w = abs(float(mp.im(a)))
        if w:
            pts.update(k * math.pi / w for k in range(1, int(16 * m * w / math.pi) + 1))
    return sorted(pts) + [mp.inf]


def eff_capacity_shannon(ch, theta):
    """-(1/theta) ln E(1+Z)^{-theta}, E(1+Z)^{-theta} = 1 - theta int (1+t)^{-theta-1} sf."""
    with mp.workdps(QUAD_DPS):
        th, sf = mp.mpf(theta), ch.fn("sf")
        I = mp.quad(lambda t: (1 + t) ** (-th - 1) * sf(t), _breaks(ch))
        return float(-mp.log(1 - th * I) / th)


def ergodic_capacity(ch, rayleigh_S=None):
    """E ln(1+Z) = int sf(t)/(1+t) dt; Rayleigh: e^{1/S} E1(1/S)."""
    if rayleigh_S is not None:
        return float(math.exp(1.0 / rayleigh_S) * exp1(1.0 / rayleigh_S))
    with mp.workdps(QUAD_DPS):
        sf = ch.fn("sf")
        return float(mp.quad(lambda t: sf(t) / (1 + t), _breaks(ch)))


def outage_capacity(ch, q):
    """C with P(ln(1+Z) < C) = q."""
    if ch.erlang is not None:
        m, rate = ch.erlang
        return float(math.log1p(gammaincinv(m, q) / rate))
    with mp.workdps(30):
        lo, hi = mp.mpf(0), mp.mpf(ch.mean())
        while ch.cdf(hi) < q:
            hi *= 2
        x = mp.findroot(lambda t: ch.cdf(t) - q, (lo, hi), solver="anderson")
        return float(mp.log1p(x))


def pep(branches):
    """(1/pi) int_0^{pi/2} prod_n L_n(a_n / sin^2 t) dt (Craig form)."""
    with mp.workdps(QUAD_DPS):
        f = lambda t: mp.fprod(ch.lt(a / mp.sin(t) ** 2) for ch, a in branches)
        return float(mp.quad(f, [0, mp.pi / 4, mp.pi / 2]) / mp.pi)


def ncbr(links, R12, R21):
    th12, th21 = math.expm1(R12), math.expm1(R21)
    with mp.workdps(30):
        s12 = links["13"].sf(th12) * links["32"].sf(th12)
        s21 = links["23"].sf(th21) * links["31"].sf(th21)
        return float((R12 * s12 + R21 * s21) / 3)


def arq_interference(signal, interferer, R, theta=None):
    """R P(Z > theta (1 + Z_I)) = R int sf_Z(theta (1 + u)) f_I(u) du, term
    by term: with sf term t^{n-1} e^{-at}/(n-1)! and density term
    u^{m-1} e^{-bu}/(m-1)!, expanding (1 + u)^{n-1} leaves gamma integrals."""
    th = math.expm1(R) if theta is None else theta
    with mp.workdps(signal.dps):
        th = mp.mpf(th)
        total = mp.mpf(0)
        for c, a, n in signal.sf_terms:
            front = c * th ** (n - 1) * mp.exp(-a * th) / mp.factorial(n - 1)
            for c2, b, m in interferer.pdf_terms:
                rate = a * th + b
                total += front * c2 / mp.factorial(m - 1) * mp.fsum(
                    mp.binomial(n - 1, j) * mp.factorial(j + m - 1) / rate ** (j + m)
                    for j in range(n))
        return float(R * mp.re(total))


def sm_mimo_2x2_outage(R):
    """P((1+z1)(1+z2) <= e^R) under the ordered 2x2 Wishart eigenvalue
    density e^{-z1-z2}(z1-z2)^2, inner integral in closed form."""
    with mp.workdps(30):
        T = mp.exp(R)

        def inner(z1):
            h = T / (1 + z1) - 1
            if h <= z1:
                return mp.mpf(0)
            d = h - z1
            return mp.exp(-z1) * (2 * mp.exp(-z1) - mp.exp(-h) * (d * d + 2 * d + 2))

        return float(mp.quad(inner, [0, mp.sqrt(T) - 1]))


def entropy(ch):
    """-int f ln f over (0, inf)."""
    with mp.workdps(QUAD_DPS):
        pdf = ch.fn("pdf")

        def g(t):
            f = pdf(t)
            return -f * mp.log(f) if f > 0 else mp.mpf(0)
        return float(mp.quad(g, _breaks(ch)))


def cell_means(ch, edges):
    """Conditional means E[Z | edges[q] < Z <= edges[q+1]]."""
    with mp.workdps(QUAD_DPS):
        pdf = ch.fn("pdf")
        out = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            hi = mp.inf if math.isinf(hi) else hi
            pts = [lo, hi] if mp.isinf(hi) or hi - lo < ch.mean() else \
                [lo, (lo + hi) / 2, hi]
            m0 = mp.quad(pdf, pts)
            m1 = mp.quad(lambda t: t * pdf(t), pts)
            out.append(float(m1 / m0))
        return out


def rayleigh_arq_optimum(S):
    """Rate maximizing R e^{-(e^R - 1)/S}: the root of R e^R = S."""
    return float(lambertw(S).real)
