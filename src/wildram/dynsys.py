"""Rational maps on P^1 over an exact coefficient domain.

Critical points in characteristic p are detected through fiber
multiplicities rather than derivative order: the map z^p - cz has nowhere
vanishing derivative yet is totally (wildly) ramified over infinity, and
the profile computation sees that where the derivative cannot.  Profiles
need only squarefree factorization, so they work verbatim over finite
fields, Q, and Q(zeta_p).
"""

from __future__ import annotations

from . import _poly
from .errors import DegenerateMap, DegreeMismatch, NotFixed, _certify

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of P^1: a finite domain element or infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(None)

    @classmethod
    def finite(cls, x) -> "ProjPoint":
        return cls(x)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and (
            (self.is_infinity and other.is_infinity)
            or (not self.is_infinity and not other.is_infinity and self.value == other.value)
        )

    def __hash__(self):
        return hash(("inf",)) if self.is_infinity else hash(("fin", self.value))

    def __repr__(self):
        return "oo" if self.is_infinity else f"Pt({self.value!r})"


def point_sort_key(domain, pt: ProjPoint):
    return (1,) if pt.is_infinity else (0, domain.sort_key(pt.value))


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------

class RationalMap:
    """N(z)/D(z) with gcd(N, D) = 1 and D monic; degree = max(deg N, deg D)."""

    __slots__ = ("domain", "num", "den")

    def __init__(self, domain, num, den=None):
        if den is None:
            den = [domain.one()]
        num = _poly.trim(num)
        den = _poly.trim(den)
        if not den:
            raise DegenerateMap("zero denominator")
        if not num and len(den) == 1:
            raise DegenerateMap("the zero map is not allowed")
        g = _poly.gcd(num, den, domain.inv) if num else den
        if len(g) > 1:
            num = _poly.divmod(num, g, domain.inv)[0]
            den = _poly.divmod(den, g, domain.inv)[0]
        inv = domain.inv(den[-1])
        num = _poly.scale(num, inv)
        den = _poly.scale(den, inv)
        if max(len(num), len(den)) - 1 < 1:
            raise DegenerateMap("constant map")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    def __eq__(self, other):
        return (
            isinstance(other, RationalMap)
            and other.domain == self.domain
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.domain.key(), self.num, self.den))

    def __repr__(self):
        return f"RationalMap(deg {self.degree} over {self.domain!r})"

    def derivative_pair(self):
        """(N'D - ND', D^2): numerator and denominator of f'."""
        num, den = self.num, self.den
        w = _poly.sub(
            _poly.mul(_poly.deriv(num), den), _poly.mul(num, _poly.deriv(den))
        )
        return w, _poly.mul(den, den)

    def evaluate(self, pt: ProjPoint) -> ProjPoint:
        d = self.domain
        if pt.is_infinity:
            dn, dd = len(self.num) - 1, len(self.den) - 1
            if dn > dd:
                return ProjPoint.infinity()
            if dn < dd:
                return ProjPoint.finite(d.zero())
            return ProjPoint.finite(self.num[-1] * d.inv(self.den[-1]))
        nv = _poly.evaluate(self.num, pt.value)
        dv = _poly.evaluate(self.den, pt.value)
        if not dv:
            return ProjPoint.infinity()
        return ProjPoint.finite(nv * d.inv(dv))

    def compose(self, other: "RationalMap") -> "RationalMap":
        """self o other."""
        d = self.domain
        deg = self.degree
        gn_pows = [[d.one()]]
        gd_pows = [[d.one()]]
        for _ in range(deg):
            gn_pows.append(_poly.mul(gn_pows[-1], other.num))
            gd_pows.append(_poly.mul(gd_pows[-1], other.den))
        num, den = [], []
        for i in range(deg + 1):
            term = _poly.mul(gn_pows[i], gd_pows[deg - i])
            if i < len(self.num):
                num = _poly.add(num, _poly.scale(term, self.num[i]))
            if i < len(self.den):
                den = _poly.add(den, _poly.scale(term, self.den[i]))
        return RationalMap(d, num, den)

    def iterate(self, n: int) -> "RationalMap":
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    def map_into(self, new_domain, transfer) -> "RationalMap":
        return RationalMap(
            new_domain,
            [transfer(c) for c in self.num],
            [transfer(c) for c in self.den],
        )

    def to_json(self):
        d = self.domain
        return {
            "domain": d.to_json(),
            "num": [d.coeff_to_json(c) for c in self.num],
            "den": [d.coeff_to_json(c) for c in self.den],
        }


class Pgl2:
    """Invertible Mobius map (a z + b)/(c z + d), scaled so the first
    nonzero entry is 1."""

    __slots__ = ("domain", "entries")

    def __init__(self, domain, a, b, c, d):
        det = a * d - b * c
        if not det:
            raise DegenerateMap("singular matrix")
        scale = None
        for v in (a, b, c, d):
            if v:
                scale = domain.inv(v)
                break
        entries = (a * scale, b * scale, c * scale, d * scale)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Pgl2 is immutable")

    @classmethod
    def identity(cls, domain) -> "Pgl2":
        return cls(domain, domain.one(), domain.zero(), domain.zero(), domain.one())

    @classmethod
    def affine(cls, domain, gamma, delta) -> "Pgl2":
        """z -> gamma z + delta."""
        return cls(domain, gamma, delta, domain.zero(), domain.one())

    def inverse(self) -> "Pgl2":
        a, b, c, d = self.entries
        return Pgl2(self.domain, d, -b, -c, a)

    def compose(self, other: "Pgl2") -> "Pgl2":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return Pgl2(
            self.domain, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        )

    def apply(self, pt: ProjPoint) -> ProjPoint:
        a, b, c, d = self.entries
        dom = self.domain
        if pt.is_infinity:
            if not c:
                return ProjPoint.infinity()
            return ProjPoint.finite(a * dom.inv(c))
        denv = c * pt.value + d
        if not denv:
            return ProjPoint.infinity()
        return ProjPoint.finite((a * pt.value + b) * dom.inv(denv))

    def as_map(self) -> RationalMap:
        a, b, c, d = self.entries
        return RationalMap(self.domain, [b, a], [d, c])

    def affine_parts(self):
        """(gamma, delta) with the map z -> gamma z + delta; lower row must be (0, 1)."""
        a, b, c, d = self.entries
        if c:
            raise DegenerateMap("not an affine map")
        inv = self.domain.inv(d)
        return a * inv, b * inv

    def __eq__(self, other):
        return (
            isinstance(other, Pgl2)
            and other.domain == self.domain
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.domain.key(), self.entries))

    def __repr__(self):
        a, b, c, d = self.entries
        return f"Pgl2[{a!r}, {b!r}; {c!r}, {d!r}]"


# ---------------------------------------------------------------------------
# Ramification
# ---------------------------------------------------------------------------

def _fiber_poly(f: RationalMap, Q: ProjPoint):
    """Polynomial whose roots are the finite fiber points, plus e at infinity."""
    if Q.is_infinity:
        g = list(f.den)
    else:
        g = _poly.sub(f.num, _poly.scale(f.den, Q.value))
    if not g:
        raise DegenerateMap("constant map has no fibers")
    e_inf = f.degree - (len(g) - 1)
    return g, e_inf


def ram_profile(f: RationalMap, Q: ProjPoint) -> list[int]:
    """Multiset of local multiplicities in the fiber f^(-1)(Q), summing to deg f.

    Computed from squarefree degrees over a splitting extension; no roots
    are extracted.
    """
    d = f.domain
    g, e_inf = _fiber_poly(f, Q)
    profile = []
    if len(g) > 1:
        for part, mult in d.squarefree(g):
            profile.extend([mult] * (len(part) - 1))
    if e_inf > 0:
        profile.append(e_inf)
    profile.sort()
    _certify(sum(profile) == f.degree, f"fiber profile {profile} does not sum to {f.degree}")
    return profile


def _root_multiplicity(a, r, domain) -> int:
    """Multiplicity of the root r in the polynomial a."""
    mult = 0
    work = list(a)
    lin = [-r, domain.one()]
    while len(work) > 1:
        q, rem = _poly.divmod(work, lin, domain.inv)
        if rem:
            break
        work = q
        mult += 1
    return mult


def local_index(f: RationalMap, x: ProjPoint) -> int:
    """Ramification index of f at the point x."""
    d = f.domain
    fx = f.evaluate(x)
    if x.is_infinity:
        g, e_inf = _fiber_poly(f, fx)
        return e_inf if e_inf > 0 else 1
    g, _ = _fiber_poly(f, fx)
    return max(_root_multiplicity(g, x.value, d), 1)


def _critical_data(f: RationalMap):
    """(map over a splitting extension, [(point, index)] of all criticals)."""
    d = f.domain
    w, _ = f.derivative_pair()
    if not w:
        raise DegenerateMap("derivative vanishes identically (inseparable map)")
    candidates = []
    new_dom, transfer, wroots = d.splitting_roots(w)
    fL = f.map_into(new_dom, transfer) if new_dom != d else f
    for r, _m in wroots:
        candidates.append(ProjPoint.finite(r))
    if len(f.den) > 1:
        dom2, transfer2, droots = new_dom.splitting_roots(
            [transfer(c) for c in f.den]
        )
        if dom2 != new_dom:
            fL = fL.map_into(dom2, transfer2)
            candidates = [
                ProjPoint.finite(transfer2(pt.value)) for pt in candidates
            ]
            new_dom = dom2
        for r, m in droots:
            if m >= 2:
                candidates.append(ProjPoint.finite(r))
    candidates.append(ProjPoint.infinity())
    crits = []
    seen = set()
    for pt in candidates:
        if pt in seen:
            continue
        seen.add(pt)
        e = local_index(fL, pt)
        if e >= 2:
            crits.append((pt, e))
    crits.sort(key=lambda t: point_sort_key(new_dom, t[0]))
    return fL, crits


def critical_points(f: RationalMap) -> list[tuple[ProjPoint, int]]:
    """All points with ramification index >= 2, over a splitting extension."""
    return _critical_data(f)[1]


# ---------------------------------------------------------------------------
# Mapping schemes
# ---------------------------------------------------------------------------

class MappingScheme:
    """Weighted digraph of critical and post-critical points.

    Vertices are (point, is_critical, local index); each non-truncated
    vertex has exactly one outgoing edge, labeled by the local index at
    the source.
    """

    __slots__ = ("domain", "vertices", "critical", "edges", "truncated")

    def __init__(self, domain, vertices, critical, edges, truncated):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "critical", tuple(critical))
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "truncated", frozenset(truncated))

    def __setattr__(self, name, value):
        raise AttributeError("MappingScheme is immutable")

    @property
    def was_truncated(self) -> bool:
        return bool(self.truncated)

    def vertex_label(self, i: int) -> str:
        pt = self.vertices[i]
        return "oo" if pt.is_infinity else self.domain.fmt(pt.value)

    def to_dot(self) -> str:
        lines = ["digraph pco {"]
        for i, pt in enumerate(self.vertices):
            shape = "doublecircle" if self.critical[i] else "circle"
            extra = ' style="dashed"' if i in self.truncated else ""
            lines.append(f'  v{i} [label="{self.vertex_label(i)}" shape={shape}{extra}];')
        for s, t, w in self.edges:
            lines.append(f'  v{s} -> v{t} [label="{w}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "vertices": [
                {
                    "point": None if pt.is_infinity else self.domain.coeff_to_json(pt.value),
                    "critical": bool(self.critical[i]),
                    "truncated": i in self.truncated,
                }
                for i, pt in enumerate(self.vertices)
            ],
            "edges": [[s, t, w] for s, t, w in self.edges],
            "was_truncated": self.was_truncated,
        }

    def weight_signature(self):
        """Isomorphism invariant: sorted (critical, out-weight or None, in-weights)."""
        incoming = {}
        for s, t, w in self.edges:
            incoming.setdefault(t, []).append(w)
        sig = []
        for i in range(len(self.vertices)):
            out = None
            for s, t, w in self.edges:
                if s == i:
                    out = w
            sig.append((self.critical[i], out, tuple(sorted(incoming.get(i, [])))))
        return tuple(sorted(sig))

    def is_isomorphic_via(self, other: "MappingScheme", point_map) -> bool:
        """Check that point_map induces a weight-preserving digraph isomorphism."""
        if len(self.vertices) != len(other.vertices):
            return False
        index = {pt: i for i, pt in enumerate(other.vertices)}
        perm = {}
        for i, pt in enumerate(self.vertices):
            img = point_map(pt)
            if img not in index:
                return False
            perm[i] = index[img]
        if sorted(perm.values()) != list(range(len(other.vertices))):
            return False
        edges = {(perm[s], perm[t], w) for s, t, w in self.edges}
        return edges == set(other.edges)


def post_critical_orbit(f: RationalMap, max_steps: int) -> MappingScheme:
    """Forward closure of the critical set, with local indices as weights.

    Critical points appear as tagged source vertices.  Over a finite field
    the orbit always closes; over characteristic zero the expansion stops
    after max_steps breadth-first levels and marks the frontier truncated.
    """
    fL, crits = _critical_data(f)
    dom = fL.domain
    points = [pt for pt, _ in crits]
    critical_set = {pt for pt, _ in crits}
    known = {pt: i for i, pt in enumerate(points)}
    edges = []
    expanded = set()
    frontier = list(points)
    steps = 0
    while frontier and steps < max_steps:
        next_frontier = []
        for pt in frontier:
            i = known[pt]
            if i in expanded:
                continue
            img = fL.evaluate(pt)
            if img not in known:
                known[img] = len(points)
                points.append(img)
                next_frontier.append(img)
            edges.append((i, known[img], local_index(fL, pt)))
            expanded.add(i)
        frontier = next_frontier
        steps += 1
    truncated = {known[pt] for pt in known if known[pt] not in expanded}
    # canonical vertex order: sort by point, remap indices
    order = sorted(range(len(points)), key=lambda i: point_sort_key(dom, points[i]))
    remap = {old: new for new, old in enumerate(order)}
    vertices = [points[i] for i in order]
    scheme = MappingScheme(
        dom,
        vertices,
        [vertices[i] in critical_set for i in range(len(vertices))],
        [(remap[s], remap[t], w) for s, t, w in edges],
        {remap[i] for i in truncated},
    )
    return scheme


# ---------------------------------------------------------------------------
# Conjugation and multipliers
# ---------------------------------------------------------------------------

def conjugate(f: RationalMap, phi: Pgl2) -> RationalMap:
    """phi o f o phi^(-1); the degree is preserved."""
    g = phi.as_map().compose(f).compose(phi.inverse().as_map())
    if g.degree != f.degree:
        raise DegreeMismatch("conjugation changed the degree")  # internal check
    return g


def multiplier(f: RationalMap, x: ProjPoint):
    """Derivative of f at a fixed point x (computed in the flipped chart at oo)."""
    d = f.domain
    if f.evaluate(x) != x:
        raise NotFixed(f"{x!r} is not fixed by the map")
    if x.is_infinity:
        deg = f.degree
        num_rev = [
            f.num[deg - i] if deg - i < len(f.num) else d.zero() for i in range(deg + 1)
        ]
        den_rev = [
            f.den[deg - i] if deg - i < len(f.den) else d.zero() for i in range(deg + 1)
        ]
        flipped = RationalMap(d, den_rev, num_rev)
        return multiplier(flipped, ProjPoint.finite(d.zero()))
    w, den2 = f.derivative_pair()
    wv = _poly.evaluate(w, x.value)
    dv = _poly.evaluate(den2, x.value)
    return wv * d.inv(dv)


def fixed_point_data(f: RationalMap):
    """(map over a splitting extension, all fixed points there, incl. oo)."""
    d = f.domain
    g = _poly.sub(f.num, [d.zero(), *f.den])  # N(z) - z D(z)
    pts = []
    fL = f
    if g:
        new_dom, transfer, roots = d.splitting_roots(g)
        if new_dom != d:
            fL = f.map_into(new_dom, transfer)
        pts = [ProjPoint.finite(r) for r, _m in roots]
    if f.evaluate(ProjPoint.infinity()).is_infinity:
        pts.append(ProjPoint.infinity())
    return fL, pts
