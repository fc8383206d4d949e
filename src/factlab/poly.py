"""Dense homogeneous multivariate polynomials over exact fields.

Monomials are exponent tuples; a HomoPoly stores a dict from monomial to
nonzero coefficient together with an explicit degree so the zero polynomial
keeps its degree.  The canonical term order everywhere is graded lex with
earlier variables larger (for a fixed degree this is plain descending
tuple order).

Each exact operation on forms is written once: _acc adds a coefficient
into a term dict, point_row evaluates monomials at one point (eval_poly is
its dot product with the coefficients; evaluation matrices take it over QQ
only), _substitute replaces variables by linear forms (restrict_to_plane,
linear_change), and form_from_coeffs reads a coefficient vector over a
monomial basis as a form.  eval_poly_horner is the independent evaluation
oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BadChart,
    FieldMismatch,
    NotHomogeneous,
    NotSingular,
    OddDegree,
    PolySyntaxError,
    UnknownVariable,
)
from .fields import FieldSpec, Scalar
from .linalg import dot, rank as matrix_rank
from .rng import SplitMix64

Monomial = Tuple[int, ...]

DEFAULT_VAR_NAMES = {
    2: ("x", "y"),
    3: ("x", "y", "z"),
    4: ("x", "y", "z", "w"),
    5: ("x", "y", "z", "t", "u"),
    6: ("x", "y", "z", "w", "t", "v"),
}


def var_names(nvars: int) -> Tuple[str, ...]:
    try:
        return DEFAULT_VAR_NAMES[nvars]
    except KeyError:
        return tuple(f"x{i}" for i in range(nvars))


@dataclass(frozen=True)
class HomoPoly:
    nvars: int
    degree: int
    terms: Dict[Monomial, Scalar]
    field: FieldSpec

    def __post_init__(self):
        for m, c in self.terms.items():
            if len(m) != self.nvars:
                raise ValueError(f"monomial {m} has wrong arity")
            if sum(m) != self.degree:
                raise NotHomogeneous(f"monomial {m} has degree {sum(m)} != {self.degree}")
            if not c:
                raise ValueError("zero coefficient stored")

    # --- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def coeff(self, m: Monomial) -> Scalar:
        return self.terms.get(m, self.field.zero)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomoPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, self.field, frozenset(self.terms.items())))

    # --- ring operations ----------------------------------------------------

    def _check(self, other: "HomoPoly"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        self._check(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise NotHomogeneous("adding different degrees")
        deg = other.degree if self.is_zero() else self.degree
        return make_poly(self.nvars, deg, _add_dicts(self.terms, other.terms, self.field), self.field)

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        return self + other.scale(self.field.neg(self.field.one))

    def __mul__(self, other: "HomoPoly") -> "HomoPoly":
        self._check(other)
        terms = _mul_dicts(self.terms, other.terms, self.field)
        return make_poly(self.nvars, self.degree + other.degree, terms, self.field)

    def scale(self, c: Scalar) -> "HomoPoly":
        f = self.field
        terms = {m: f.mul(c, v) for m, v in self.terms.items()}
        return make_poly(self.nvars, self.degree, terms, f)

    # --- text -----------------------------------------------------------

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        names = var_names(self.nvars)
        parts: List[str] = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            for v, e in enumerate(m):
                if e == 1:
                    factors.append(names[v])
                elif e > 1:
                    factors.append(f"{names[v]}^{e}")
            body = "*".join(factors)
            if isinstance(c, Fraction) and c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            if not body:
                parts.append((sign, str(mag)))
            elif mag == 1:
                parts.append((sign, body))
            else:
                parts.append((sign, f"{mag}*{body}"))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.to_text()


def make_poly(nvars: int, degree: int, terms: Dict[Monomial, Scalar], field: FieldSpec) -> HomoPoly:
    return HomoPoly(nvars, degree, {m: c for m, c in terms.items() if c}, field)


def zero_poly(nvars: int, degree: int, field: FieldSpec) -> HomoPoly:
    return HomoPoly(nvars, degree, {}, field)


def form_from_coeffs(basis: Sequence[Monomial], coeffs: Sequence[Scalar],
                     field: FieldSpec) -> HomoPoly:
    """The form sum coeffs[i] * basis[i]; nvars and degree are read from
    basis[0].  An array's entries become Python numbers: an np.int64
    coefficient would break HomoPoly arithmetic (pow(np.int64(3), 5, 7)
    raises TypeError)."""
    if isinstance(coeffs, np.ndarray):
        coeffs = coeffs.tolist()
    return make_poly(len(basis[0]), sum(basis[0]), dict(zip(basis, coeffs)), field)


def _acc(out: Dict[Monomial, Scalar], m: Monomial, c: Scalar, f: FieldSpec) -> None:
    """out[m] += c, dropping the entry when it cancels."""
    s = f.add(out.get(m, f.zero), c)
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def _add_dicts(a, b, f: FieldSpec):
    out = dict(a)
    for m, c in b.items():
        _acc(out, m, c, f)
    return out


def _mul_dicts(a, b, f: FieldSpec):
    out: Dict[Monomial, Scalar] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _acc(out, tuple(x + y for x, y in zip(ma, mb)), f.mul(ca, cb), f)
    return out


# --- parsing ------------------------------------------------------------

_TOKEN_COEFF = re.compile(r"^[+-]?\d+(/\d+)?$")
_TOKEN_VAR = re.compile(r"^([A-Za-z]\w*)(\^(\d+))?$")


def parse_poly(text: str, nvars: int, field: FieldSpec) -> HomoPoly:
    """Parse the bit-exact grammar: term (('+'|'-') term)*.

    term ::= [coeff '*'] var ('^' exp)? ('*' var ('^' exp)?)* ; a bare
    coefficient is accepted as a degree-0 term.
    """
    names = list(var_names(nvars))
    index = {n: i for i, n in enumerate(names)}
    stripped = text.replace(" ", "").replace("\t", "")
    if not stripped:
        raise PolySyntaxError("empty polynomial text")

    # split on +/- at top level (no parentheses in the grammar)
    pieces: List[Tuple[int, str]] = []
    sign, cur = 1, ""
    for ch in stripped:
        if ch in "+-" and cur:
            pieces.append((sign, cur))
            sign, cur = (1 if ch == "+" else -1), ""
        elif ch in "+-" and not cur:
            sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if not cur:
        raise PolySyntaxError(f"dangling sign in {text!r}")
    pieces.append((sign, cur))

    degree: Optional[int] = None
    terms: Dict[Monomial, Scalar] = {}
    for sgn, piece in pieces:
        coeff = field.one
        expo = [0] * nvars
        for factor in piece.split("*"):
            if not factor:
                raise PolySyntaxError(f"empty factor in term {piece!r}")
            if _TOKEN_COEFF.match(factor):
                coeff = field.mul(coeff, field.parse_scalar(factor))
                continue
            m = _TOKEN_VAR.match(factor)
            if not m:
                raise PolySyntaxError(f"bad factor {factor!r}")
            name, _, exp = m.groups()
            if name not in index:
                raise UnknownVariable(f"variable {name!r} not among {names}")
            expo[index[name]] += int(exp) if exp else 1
        if sgn < 0:
            coeff = field.neg(coeff)
        d = sum(expo)
        if degree is None:
            degree = d
        elif degree != d:
            raise NotHomogeneous(f"term degrees {degree} and {d} in {text!r}")
        _acc(terms, tuple(expo), coeff, field)
    return HomoPoly(nvars, degree, terms, field)


# --- monomial bases --------------------------------------------------------


def monomial_basis(nvars: int, degree: int) -> List[Monomial]:
    """All monomials of the given total degree, descending graded-lex."""
    if nvars < 1 or degree < 0:
        raise ValueError("nvars >= 1 and degree >= 0 required")
    out: List[Monomial] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


# --- evaluation and calculus -------------------------------------------


def point_row(coords: Sequence[Scalar], basis, field: FieldSpec) -> List[Scalar]:
    """The value at coords of each monomial of basis, in basis order."""
    mul, power = field.mul, field.power
    row = []
    for m in basis:
        v = field.one
        for x, e in zip(coords, m):
            if e:
                v = mul(v, power(x, e))
        row.append(v)
    return row


def eval_poly(f: HomoPoly, coords: Sequence[Scalar]) -> Scalar:
    if len(coords) != f.nvars:
        raise FieldMismatch(f"expected {f.nvars} coordinates, got {len(coords)}")
    return dot(f.terms.values(), point_row(coords, f.terms, f.field), f.field)


def eval_poly_horner(f: HomoPoly, coords: Sequence[Scalar]) -> Scalar:
    """Independent evaluation path (recursive Horner by first variable).

    The per-point oracle for scan.horner_on_rows, its batched form, which
    re-checks every scan hit.
    """
    fld = f.field
    return _horner(dict(f.terms), list(coords), 0, f.nvars, fld)


def _horner(terms, coords, var, nvars, fld):
    if not terms:
        return fld.zero
    if var == nvars:
        acc = fld.zero
        for c in terms.values():
            acc = fld.add(acc, c)
        return acc
    by_exp: Dict[int, dict] = {}
    for m, c in terms.items():
        by_exp.setdefault(m[var], {})[m] = c
    acc = fld.zero
    for e in sorted(by_exp, reverse=True):
        inner = _horner(by_exp[e], coords, var + 1, nvars, fld)
        acc = fld.add(acc, fld.mul(inner, fld.power(coords[var], e)))
    return acc


def partial(f: HomoPoly, var: int) -> HomoPoly:
    fld = f.field
    terms: Dict[Monomial, Scalar] = {}
    for m, c in f.terms.items():
        e = m[var]
        if e:
            _acc(terms, m[:var] + (e - 1,) + m[var + 1:], fld.mul(c, fld.of_int(e)), fld)
    return make_poly(f.nvars, max(f.degree - 1, 0), terms, fld)


def gradient(f: HomoPoly) -> List[HomoPoly]:
    if f.degree < 1:
        raise ValueError("gradient needs degree >= 1")
    return [partial(f, v) for v in range(f.nvars)]


def hessian(f: Union[HomoPoly, Sequence[HomoPoly]]) -> List[List[HomoPoly]]:
    """The symmetric matrix of second partials partial(partial(f, i), j) of
    a form f; given f's gradient instead, it is not built again."""
    grads = gradient(f) if isinstance(f, HomoPoly) else f
    H: List[List[HomoPoly]] = [[None] * len(grads) for _ in grads]
    for i, g in enumerate(grads):
        for j in range(i, len(grads)):
            H[i][j] = H[j][i] = partial(g, j)
    return H


def hessian_block(H: List[List[HomoPoly]], coords: Sequence[Scalar]) -> List[List[Scalar]]:
    """H at coords without the row and column of the pivot (the first
    nonzero coordinate).

    At a canonical point (pivot coordinate 1) this is the affine Hessian in
    the pivot chart; scaling the point scales it by a nonzero constant, so
    its rank does not depend on the representative.
    """
    pivot = next(i for i, c in enumerate(coords) if c)
    keep = [i for i in range(len(coords)) if i != pivot]
    block = [[None] * len(keep) for _ in keep]
    for a, i in enumerate(keep):
        for b in range(a, len(keep)):
            block[a][b] = block[b][a] = eval_poly(H[i][keep[b]], coords)
    return block


def node_rank(grads: Sequence[HomoPoly], H: List[List[HomoPoly]], coords: Sequence[Scalar]) -> int:
    """Rank of hessian_block(H, coords) at a point where every form in grads
    (the gradient whose Jacobian is H) vanishes.

    Raises NotSingular when the gradient does not vanish there.  This
    affine test of the pivot chart is the per-point oracle in tests of
    sing_locus.verify_nodal, which takes the equivalent corank-1 test of the
    full projective Hessian at all points at once.
    """
    fld = grads[0].field
    for g in grads:
        if eval_poly(g, coords):
            raise NotSingular(f"gradient nonzero at {tuple(coords)}")
    return matrix_rank(hessian_block(H, coords), fld)


def hessian_rank_at(f: HomoPoly, point) -> int:
    """Rank of the Hessian of f at a singular point, in the chart of its
    pivot coordinate.

    point is a ProjPoint (anything with .coords).  Raises NotSingular when the
    gradient does not vanish there.
    """
    grads = gradient(f)
    return node_rank(grads, hessian(grads), tuple(point.coords))


# --- restriction, division, roots ----------------------------------------


def _unit(i: int, nvars: int) -> Monomial:
    return tuple(1 if j == i else 0 for j in range(nvars))


def _substitute(f: HomoPoly, images: Sequence[Dict[Monomial, Scalar]], nvars: int) -> HomoPoly:
    """f with each x_i replaced by the linear form images[i], a term dict in
    nvars variables; the powers of each image are built once."""
    fld = f.field
    powers = [[{(0,) * nvars: fld.one}] for _ in images]
    out: Dict[Monomial, Scalar] = {}
    for m, c in f.terms.items():
        acc = {(0,) * nvars: c}
        for pw, image, e in zip(powers, images, m):
            if e:
                while len(pw) <= e:
                    pw.append(_mul_dicts(pw[-1], image, fld))
                acc = _mul_dicts(acc, pw[e], fld)
        for k, v in acc.items():
            _acc(out, k, v, fld)
    return make_poly(nvars, f.degree, out, fld)


def restrict_to_plane(f: HomoPoly, ell: HomoPoly, chart: int) -> HomoPoly:
    """Eliminate the chart variable via ell = 0; result lives in nvars-1 vars."""
    if ell.degree != 1:
        raise ValueError("ell must be linear")
    fld = f.field
    n = f.nvars
    c = ell.coeff(_unit(chart, n))
    if not c:
        raise BadChart(f"zero coefficient at chart variable {chart}")
    inv_neg = fld.neg(fld.inv(c))

    def var(j):  # x_j as one of the n - 1 remaining variables
        return _unit(j - (j > chart), n - 1)

    # x_chart -> -(ell - c * x_chart) / c, every other x_j -> itself
    images = [{var(j): fld.one} for j in range(n)]
    images[chart] = {var(m.index(1)): fld.mul(cc, inv_neg)
                     for m, cc in ell.terms.items() if not m[chart]}
    return _substitute(f, images, n - 1)


def divide_by_linear(f: HomoPoly, ell: HomoPoly) -> Optional[HomoPoly]:
    """Exact quotient f / ell, or None when ell does not divide f."""
    if ell.degree != 1 or ell.is_zero():
        raise ValueError("ell must be a nonzero linear form")
    fld = f.field
    if f.is_zero():
        return zero_poly(f.nvars, max(f.degree - 1, 0), fld)
    lead_ell = ell.leading_monomial()
    pivot = lead_ell.index(1)
    cinv = fld.inv(ell.terms[lead_ell])
    # univariate synthetic division in the pivot variable
    h = dict(f.terms)
    q: Dict[Monomial, Scalar] = {}
    while h:
        # leading term w.r.t. pivot-first lex
        lead = max(h, key=lambda m: (m[pivot], m))
        if lead[pivot] == 0:
            return None
        qm = lead[:pivot] + (lead[pivot] - 1,) + lead[pivot + 1:]
        qc = fld.mul(h[lead], cinv)
        _acc(q, qm, qc, fld)
        for em, ec in ell.terms.items():
            _acc(h, tuple(a + b for a, b in zip(qm, em)), fld.neg(fld.mul(qc, ec)), fld)
    return make_poly(f.nvars, f.degree - 1, q, fld)


def poly_sqrt(f: HomoPoly):
    """Exact square root g with g*g == f, or None.

    Deterministic coefficient matching from the graded-lex leading term; the
    root's leading coefficient is the principal scalar square root.
    """
    fld = f.field
    if f.degree % 2:
        raise OddDegree(f"degree {f.degree} is odd")
    if f.is_zero():
        return zero_poly(f.nvars, f.degree // 2, fld)
    lead_f = f.leading_monomial()
    if any(e % 2 for e in lead_f):
        return None
    lead_g = tuple(e // 2 for e in lead_f)
    c_lead = fld.sqrt(f.terms[lead_f])
    if c_lead is None:
        return None
    half = f.degree // 2
    g: Dict[Monomial, Scalar] = {lead_g: c_lead}
    two_lead_inv = fld.inv(fld.mul(fld.of_int(2), c_lead))
    for mu in monomial_basis(f.nvars, half):
        if mu >= lead_g:
            continue
        target = tuple(a + b for a, b in zip(lead_g, mu))
        acc = f.coeff(target)
        for alpha, ca in g.items():
            beta = tuple(t - a for t, a in zip(target, alpha))
            if any(e < 0 for e in beta):
                continue
            cb = g.get(beta)
            if cb is not None:
                acc = fld.sub(acc, fld.mul(ca, cb))
        c_mu = fld.mul(acc, two_lead_inv)
        if c_mu:
            g[mu] = c_mu
    root = make_poly(f.nvars, half, g, fld)
    if root * root == f:
        return root
    return None


# --- seeded random forms ----------------------------------------------------


def random_homo(nvars: int, degree: int, field: FieldSpec, seed: int) -> HomoPoly:
    """Seeded uniform random form: one splitmix64 draw per graded-lex monomial."""
    rng = SplitMix64(seed)
    terms: Dict[Monomial, Scalar] = {}
    for m in monomial_basis(nvars, degree):
        if field.p:
            c = rng.below(field.p)
        else:
            c = Fraction(rng.below(19) - 9)
        if c:
            terms[m] = c
    return make_poly(nvars, degree, terms, field)


def embed_poly(f: HomoPoly, nvars: int, positions: Sequence[int]) -> HomoPoly:
    """Re-read f's variables at the given positions of a larger variable list."""
    if len(positions) != f.nvars:
        raise ValueError("positions must match f.nvars")
    terms: Dict[Monomial, Scalar] = {}
    for m, c in f.terms.items():
        e = [0] * nvars
        for pos, exp in zip(positions, m):
            e[pos] = exp
        terms[tuple(e)] = c
    return make_poly(nvars, f.degree, terms, f.field)


def linear_change(f: HomoPoly, matrix) -> HomoPoly:
    """Substitute x_i -> sum_j matrix[i][j] * x_j (rows give the images)."""
    n = f.nvars
    images = [{_unit(j, n): c for j, c in enumerate(matrix[i]) if c} for i in range(n)]
    return _substitute(f, images, n)
