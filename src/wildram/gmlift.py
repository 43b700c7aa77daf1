"""The characteristic-zero lift of z^p - cz and its dynamical behavior.

The lift is f(z) = ((lambda z + s)^p - s^p)/lambda^p with lambda = zeta_p - 1,
built over the specialized ring Q(zeta_p)[s]/(s^(p-1) - a); only the PCF
locus and the per-prime sides below treat s as a free symbol.  Expanding
the binomial gives the z^(p-i) coefficient binom(p, i) s^i / lambda^i,
whose cyclotomic part has lambda-valuation p - 1 - i: every middle
coefficient dies mod p and the reduction is z^p - cz with c = sbar^(p-1).

The identities behind the lift are certified without expanding anything
per a.  ``lift_sides(p)`` expands three a-free sides once per prime over
Q(zeta_p)[s] with s free: D = ((lambda z + s)^p - s^p)/lambda^p,
R = (p/lambda^(p-1))(lambda z + s)^(p-1) and P = (z + s/lambda)^p.  Each
call maps them to its ring by the homomorphism ``SRing.specialize``
(s^(p-1) -> a) and compares D with the closed form, R with the derivative
and P with the fiber L - L(-s/lambda), all three computed for that a.

The finite critical point -s/lambda escapes for generic parameters: once
v(lambda z) < v(s), the (lambda z)^p term dominates (lambda z + s)^p - s^p
ultrametrically, so v(f(z)) = p v(z) exactly, and the valuations run away
monotonically.  That one-line dominant-term argument is the escape
certificate; the recurrence is re-verified numerically at every certified
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf

from . import _poly
from .cyclotomic import (
    CyclotomicNumber,
    SRing,
    SRingElement,
    check_cyclotomic_budget,
)
from .domains import _rational_roots
from .errors import BadParameter, NegativeValuation, _certify
from .ff import FieldElement, FqPoly, is_prime, require


# ---------------------------------------------------------------------------
# Dense polynomials in one variable over any ring with operator arithmetic
# ---------------------------------------------------------------------------

class RPoly:
    """Dense polynomial (constant term first) over a ring handle.

    The ring handle needs zero() and one(); coefficients must support the
    arithmetic operators, equality and a truth value false only for zero.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(_poly.trim(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("RPoly is immutable")

    @classmethod
    def x(cls, ring):
        return cls(ring, [ring.zero(), ring.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.ring.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RPoly)
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return RPoly(self.ring, _poly.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return RPoly(self.ring, _poly.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return RPoly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, RPoly):
            return RPoly(self.ring, _poly.scale(self.coeffs, other))
        return RPoly(self.ring, _poly.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e == 0:
            return RPoly(self.ring, [self.ring.one()])
        return RPoly(self.ring, _poly.pow(self.coeffs, e))

    def evaluate(self, x):
        return _poly.evaluate(self.coeffs, x)

    def compose(self, other: "RPoly") -> "RPoly":
        return RPoly(self.ring, _poly.compose(self.coeffs, other.coeffs))

    def __repr__(self):
        return f"RPoly(deg {self.degree})"


class CycloRing:
    """Ring handle for Q(zeta_p), for use as RPoly coefficients."""

    def __init__(self, p: int):
        self.p = p

    def zero(self):
        return CyclotomicNumber.from_rational(self.p, 0)

    def one(self):
        return CyclotomicNumber.from_rational(self.p, 1)

    def scalar(self, c):
        if isinstance(c, CyclotomicNumber):
            return c
        return CyclotomicNumber.from_rational(self.p, c)


# ---------------------------------------------------------------------------
# The lift itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftPoly:
    """((lambda z + s)^p - s^p)/lambda^p as an explicit z-polynomial.

    ``coeffs`` indexes z-powers 0..p; the entries live in the specialized
    ring Q(zeta_p)[s]/(s^(p-1) - a).
    """

    p: int
    a: int
    ring: SRing
    coeffs: tuple

    def coefficient_valuations(self) -> list:
        """Gauss valuations of the z^1..z^p coefficients."""
        return [self.coeffs[j].gauss_val() for j in range(1, self.p + 1)]

    def evaluate(self, x: SRingElement) -> SRingElement:
        return _poly.evaluate(self.coeffs, x)

    def to_json(self):
        return {
            "p": self.p,
            "mode": "specialized",
            "a": self.a,
            "z_coeffs": [c.to_json() for c in self.coeffs],
            "coefficient_valuations": [
                None if v == inf else v for v in self.coefficient_valuations()
            ],
        }


@dataclass(frozen=True)
class LiftSides:
    """The a-free sides D, R and P at one prime p (module docstring): their
    z-coefficients, each the list of its coefficients on s^0, s^1, ..."""

    lam_inv: CyclotomicNumber  # 1/lambda
    lam_inv_p: CyclotomicNumber  # 1/lambda^p
    D: tuple
    R: tuple
    P: tuple


@lru_cache(maxsize=32)
def lift_sides(p: int) -> LiftSides:
    """The sides at p, each expanded in one variable t with z = t, s = t^B
    (Kronecker substitution): z-degrees stay below B, so z^j s^e is
    t^(j + B e).  BudgetExceeded beyond ``check_cyclotomic_budget`` first."""
    check_cyclotomic_budget(p)
    B = p + 1
    zero, one = CyclotomicNumber.from_rational(p, 0), CyclotomicNumber.from_rational(p, 1)
    lam = CyclotomicNumber.lam(p)
    lam_inv = one / lam
    lam_inv_p = lam_inv**p
    s = [zero] * B + [one]
    linear = _poly.add([zero, lam], s)  # lambda z + s
    D = _poly.scale(_poly.sub(_poly.pow(linear, p), _poly.pow(s, p)), lam_inv_p)
    R = _poly.scale(_poly.pow(linear, p - 1), p / lam ** (p - 1))
    P = _poly.pow(_poly.add([zero, one], _poly.scale(s, lam_inv)), p)  # z + s/lambda
    return LiftSides(lam_inv, lam_inv_p, *(tuple(f[j::B] for j in range(B)) for f in (D, R, P)))


def _specialized(side: tuple, ring: SRing) -> list:
    """A side of ``lift_sides`` mapped into ring by s^(p-1) -> a, trimmed."""
    return _poly.trim(ring.specialize(c) for c in side)


def build_lift(p: int, a: int | None = None) -> LiftPoly:
    """Construct the lift; the closed form is cross-checked by expansion.

    Closed form: coefficient of z^(p-i) is binom(p, i) s^i / lambda^i for
    0 <= i <= p-1, constant term 0; the cyclotomic part of the z^(p-i)
    coefficient has lambda-valuation p-1-i for 1 <= i <= p-1.  It is built
    on every call and compared with D of ``lift_sides(p)``, expanded once
    per prime with s free and specialized to this a.  A mismatch raises
    CertificateFailed; p beyond ``check_cyclotomic_budget`` raises
    BudgetExceeded before any arithmetic.
    """
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    check_cyclotomic_budget(p)
    if a is None:
        raise BadParameter("the lift needs the parameter a")
    if a == 0 or (a % p == 0 and p != 2):
        raise BadParameter(f"p must not divide a (got a={a})")
    sides = lift_sides(p)
    ring = SRing(p, a)
    s = ring.s()
    terms = []  # terms[i] is the z^(p-i) coefficient
    lam_inv_i, s_i = CyclotomicNumber.from_rational(p, 1), ring.one()
    for i in range(p):
        terms.append(ring.scalar(lam_inv_i * comb(p, i)) * s_i)
        lam_inv_i, s_i = lam_inv_i * sides.lam_inv, s_i * s
    coeffs = [ring.zero(), *reversed(terms)]
    _certify(
        _specialized(sides.D, ring) == _poly.trim(coeffs),
        "closed form disagrees with the direct expansion",
    )
    lift = LiftPoly(p, a, ring, tuple(coeffs))
    vals = lift.coefficient_valuations()
    v_s = s.gauss_val()  # nonzero only in the literal p = 2 ring
    for j in range(1, p):  # z^j = z^(p-i) with i = p-j in 1..p-1
        i = p - j
        expected = (p - 1 - i) + i * v_s
        _certify(
            vals[j - 1] == expected,
            f"valuation of z^{j} coefficient is {vals[j-1]}, expected {expected}",
        )
    _certify(vals[p - 1] == 0, "the leading coefficient is not a unit")
    return lift


def reduce_lift(L: LiftPoly, sbar: FieldElement) -> FqPoly:
    """Coefficient-wise residue: the result must be exactly z^p - c z.

    c = sbar^(p-1); middle coefficients vanish because their cyclotomic
    parts have strictly positive lambda-valuation.
    """
    ring: SRing = L.ring
    K = sbar.field
    try:
        reduced = [ring.residue_s(c, sbar) for c in L.coeffs]
    except NegativeValuation as exc:  # pragma: no cover - internal consistency
        _certify(False, f"negative valuation during reduction: {exc}")
    out = FqPoly(K, reduced)
    c = sbar ** (L.p - 1)
    expected = FqPoly(
        K, [K.zero(), -c] + [K.zero()] * (L.p - 2) + [K.one()]
    )
    _certify(out == expected, "reduction is not z^p - c z")
    return out


@dataclass(frozen=True)
class LiftCriticalData:
    """Critical points of the lift with the verified p-th-power fiber."""

    critical_points: tuple  # ((None, p) for infinity, (-s/lambda, p))
    critical_value: SRingElement
    value_valuation: object
    point_valuation: object

    def to_json(self):
        pts = []
        for pt, e in self.critical_points:
            pts.append({"point": None if pt is None else pt.to_json(), "index": e})
        return {
            "critical_points": pts,
            "critical_value": self.critical_value.to_json(),
            "value_valuation": _json_val(self.value_valuation),
            "point_valuation": _json_val(self.point_valuation),
        }


def _json_val(v):
    return None if v == inf else v


def lift_critical_data(L: LiftPoly) -> LiftCriticalData:
    """{(oo, p), (-s/lambda, p)} with critical value -s^p/lambda^p.

    Verified exactly: the derivative equals (p/lambda^(p-1))(lambda z + s)^(p-1)
    and the fiber over the critical value is the p-th power ((lambda z + s)/lambda)^p,
    which is the ram_profile [p] statement in closed form.  The right-hand
    sides are R and P of ``lift_sides(p)`` specialized to L's a; the
    derivative, L(-s/lambda) and the fiber are computed from L every call.
    """
    ring: SRing = L.ring
    p = L.p
    sides = lift_sides(p)
    s = ring.s()
    crit_pt = -s * ring.scalar(sides.lam_inv)
    deriv = _poly.deriv(L.coeffs)
    _certify(deriv == _specialized(sides.R, ring), "derivative formula failed")
    # critical value and the p-th power fiber identity
    value = L.evaluate(crit_pt)
    _certify(
        value == -(s**p) * ring.scalar(sides.lam_inv_p),
        "critical value is not -s^p/lambda^p",
    )
    fiber = _poly.sub(L.coeffs, [value])
    _certify(fiber == _specialized(sides.P, ring),
             "fiber over the critical value is not a p-th power")
    return LiftCriticalData(
        critical_points=((None, p), (crit_pt, p)),
        critical_value=value,
        value_valuation=value.gauss_val(),
        point_valuation=crit_pt.gauss_val(),
    )


# ---------------------------------------------------------------------------
# Orbits of the finite critical point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCertificate:
    """Exact orbit of the finite critical value with lambda-valuations.

    verdict: "escape" (certified infinite), "finite" (exact cycle found),
    or "unknown" (budget exhausted, never a false verdict).
    """

    verdict: str
    points: tuple  # orbit values starting at the critical value
    valuations: tuple
    threshold_index: int | None = None
    preperiod: int | None = None
    period: int | None = None

    def to_json(self):
        return {
            "verdict": self.verdict,
            "valuations": [_json_val(v) for v in self.valuations],
            "threshold_index": self.threshold_index,
            "preperiod": self.preperiod,
            "period": self.period,
        }


# Steps past the threshold on which orbit_search re-checks v(f(z)) = p v(z).
_ESCAPE_VERIFY_STEPS = 3


def orbit_search(L: LiftPoly, max_steps: int) -> OrbitCertificate:
    """Iterate the finite critical value exactly and certify its fate.

    Once v(z) < min(0, v(s) - 1), the term (lambda z)^p dominates
    (lambda z + s)^p - s^p in the ultrametric, so v(f(z)) = p v(z) exactly
    and the valuation runs to -infinity: the orbit is certified infinite.
    The recurrence is re-verified on _ESCAPE_VERIFY_STEPS further steps.
    """
    if max_steps < 1:
        raise BadParameter("max_steps must be >= 1")
    ring: SRing = L.ring
    data = lift_critical_data(L)
    v_s = ring.s().gauss_val()
    threshold = min(0, v_s - 1)
    cur = data.critical_value
    points = [cur]
    vals = [cur.gauss_val()]
    seen = {cur: 0}
    threshold_index = 0 if vals[0] < threshold else None

    def certify_escape():
        nonlocal cur
        v = vals[-1]
        for _ in range(_ESCAPE_VERIFY_STEPS):
            cur = L.evaluate(cur)
            points.append(cur)
            nv = cur.gauss_val()
            vals.append(nv)
            _certify(nv == L.p * v, f"escape recurrence violated: v {v} -> {nv}")
            v = nv
        return OrbitCertificate(
            verdict="escape",
            points=tuple(points),
            valuations=tuple(vals),
            threshold_index=threshold_index,
        )

    for _step in range(1, max_steps + 1):
        if threshold_index is not None:
            return certify_escape()
        cur = L.evaluate(cur)
        if cur in seen:
            start = seen[cur]
            return OrbitCertificate(
                verdict="finite",
                points=tuple(points),
                valuations=tuple(vals),
                preperiod=start,
                period=len(points) - start,
            )
        seen[cur] = len(points)
        points.append(cur)
        vals.append(cur.gauss_val())
        if vals[-1] < threshold:
            threshold_index = len(points) - 1
    if threshold_index is not None:
        return certify_escape()
    return OrbitCertificate(
        verdict="unknown", points=tuple(points), valuations=tuple(vals)
    )


# ---------------------------------------------------------------------------
# The PCF parameter locus, symbolically
# ---------------------------------------------------------------------------

def _apply_lift_symbolic(g: RPoly, p: int, ring: CycloRing) -> RPoly:
    """f_s(g) for the symbolic lift: ((lambda g + s)^p - s^p)/lambda^p."""
    lam = CyclotomicNumber.lam(p)
    s = RPoly.x(ring)
    inner = g * ring.scalar(lam) + s
    num = inner**p - s**p
    return num * (ring.one() / lam**p)


@dataclass(frozen=True)
class LocusReport:
    p: int
    m: int
    n: int
    degree: int
    zero_multiplicity: int
    rational_roots: tuple
    roots_complete: bool

    def to_json(self):
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "degree": self.degree,
            "zero_multiplicity": self.zero_multiplicity,
            "rational_roots": [[r.numerator, r.denominator] for r in self.rational_roots],
            "roots_complete": self.roots_complete,
        }


# The locus polynomial has s-degree about p^(m+n): m + n and p are capped.
_LOCUS_MAX_TOTAL = 4
_LOCUS_MAX_P = 5


def pcf_locus_poly(p: int, m_idx: int, n_idx: int) -> tuple[RPoly, LocusReport]:
    """f^m(-s/lambda) - f^(m+n)(-s/lambda) as an exact polynomial in s.

    Parameters of post-critically finite lifts are roots of these; the
    degree grows like p^(m+n), so m + n and p have fixed limits, checked
    up front; WILDRAM_BUDGET does not raise them.
    """
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if m_idx < 0 or n_idx < 1:
        raise BadParameter("need m >= 0 and n >= 1")
    require("the locus iterations m + n", m_idx + n_idx, _LOCUS_MAX_TOTAL)
    require("the locus prime p", p, _LOCUS_MAX_P)
    ring = CycloRing(p)
    lam = CyclotomicNumber.lam(p)
    crit = RPoly(ring, [ring.zero(), ring.scalar(-1) * (ring.one() / lam)])  # -s/lambda
    g = crit
    values = [g]
    for _ in range(m_idx + n_idx):
        g = _apply_lift_symbolic(g, p, ring)
        values.append(g)
    poly = values[m_idx] - values[m_idx + n_idx]
    zero_mult = 0
    cs = list(poly.coeffs)
    while cs and cs[0].is_zero():
        cs.pop(0)
        zero_mult += 1
    rational = []
    complete = False
    if all(c.is_rational() for c in cs):
        roots, cofactor = _rational_roots([c.coords[0] for c in cs])
        rational = [r for r, _m in roots]
        complete = len(cofactor) <= 1
    report = LocusReport(
        p=p,
        m=m_idx,
        n=n_idx,
        degree=poly.degree,
        zero_multiplicity=zero_mult,
        rational_roots=tuple(rational),
        roots_complete=complete,
    )
    return poly, report


# ---------------------------------------------------------------------------
# The scaling conjugacy
# ---------------------------------------------------------------------------

def scaling_check(p: int) -> bool:
    """Verify gamma * f_s(z/gamma) = f_(gamma s)(z) with gamma^(p-1) = 1, exactly.

    Both sides are computed in Q(zeta_p)[gamma, s]/(gamma^(p-1) - 1) with s
    free; the multiplier at 0 is also pinned to (p/lambda^(p-1)) s^(p-1).
    """
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    check_cyclotomic_budget(p)
    lam = CyclotomicNumber.lam(p)
    gring = SRing(p, 1)  # Q(zeta_p)[gamma]/(gamma^(p-1) - 1)
    gamma = gring.s()  # the free (p-1)-st root of unity
    # z-coefficients of the lift as polynomials in s over the gamma-ring:
    # coefficient of z^(p-i) is binom(p,i)/lambda^i * s^i
    def lift_coeff(i: int) -> RPoly:
        unit = gring.scalar(
            CyclotomicNumber.from_rational(p, comb(p, i)) / lam**i
        )
        return RPoly(gring, [gring.zero()] * i + [unit])

    ok = True
    for i in range(0, p):
        j = p - i  # z-power
        base = lift_coeff(i)
        # LHS: gamma^(1-j) * c_j(s); gamma is invertible with gamma^(p-1)=1
        exp = (1 - j) % (p - 1) if p > 2 else 0
        lhs = base * (gamma**exp if exp else gring.one())
        # RHS: substitute s -> gamma s: scale the s^i coefficient by gamma^i
        rhs = RPoly(
            gring,
            [base.coeff(t) * gamma**t for t in range(base.degree + 1)],
        )
        ok = ok and lhs == rhs
        _certify(lhs == rhs, f"scaling identity failed at z^{j}")
    # multiplier at the fixed point 0: the z-coefficient
    mult = lift_coeff(p - 1)
    expected_unit = gring.scalar(
        CyclotomicNumber.from_rational(p, p) / lam ** (p - 1)
    )
    expected = RPoly(gring, [gring.zero()] * (p - 1) + [expected_unit])
    _certify(mult == expected, "multiplier at 0 is not (p/lambda^(p-1)) s^(p-1)")
    return ok


def multiplier_at_zero(L: LiftPoly) -> CyclotomicNumber:
    """(p/lambda^(p-1)) * s^(p-1) = (p/lambda^(p-1)) * a, an exact cyclotomic."""
    c1 = L.coeffs[1]
    _certify(all(c.is_zero() for c in c1.coeffs[1:]), "multiplier should be scalar")
    return c1.coeffs[0]


# ---------------------------------------------------------------------------
# The section-5 diagram, as DOT
# ---------------------------------------------------------------------------

def lift_scheme_dot(L: LiftPoly, orbit: OrbitCertificate) -> str:
    """The two-component post-critical diagram of the lift.

    One component is the loop at infinity with weight p; the other is the
    orbit of -s/lambda, weight p on the first arrow, truncated (dashed)
    where the exact orbit listing stopped.
    """
    data = lift_critical_data(L)
    lines = ["digraph lift_pco {"]
    lines.append(f'  inf [label="oo" shape=doublecircle];')
    lines.append(f'  inf -> inf [label="{L.p}"];')
    lines.append('  c0 [label="-s/lambda" shape=doublecircle];')
    n = len(orbit.points)
    for i in range(n):
        val = orbit.valuations[i]
        vs = "oo" if val == inf else str(val)
        style = ""
        if i == n - 1 and orbit.verdict != "finite":
            style = ' style="dashed"'
        lines.append(f'  c{i+1} [label="orbit[{i}] (v={vs})"{style}];')
    lines.append(f'  c0 -> c1 [label="{L.p}"];')
    for i in range(1, n):
        lines.append(f'  c{i} -> c{i+1} [label="1"];')
    if orbit.verdict == "finite" and orbit.period:
        back = orbit.preperiod + 1
        lines.append(f'  c{n} -> c{back} [label="1"];')
    lines.append("}")
    return "\n".join(lines)
