"""Finite-dimensional vector spaces over Q with exact linear maps.

Matrices are tuples of row tuples of ``fractions.Fraction``, ``cod.dim`` rows
by ``dom.dim`` columns, so a map's columns are the images of the domain basis
vectors. Floats are rejected at construction; nothing in this module rounds.
Computed subobjects (kernels, images, pullback objects) come back with
generated ``k<i>`` coordinate names and reduced row-echelon bases, which makes
subspace equality a plain ``==`` on representations.

The exact kernels (``rref``, ``rank_of``, ``kernel_basis``, ``solve_matrix``,
``mat_mul``) compute on Python ints; ``Fraction``s exist only at their
boundary. Each input row is scaled by the lcm of its denominators into a
sparse row of int nonzeros by column, the matrices the constructions produce
being mostly zeros. One fraction-free Gauss-Jordan elimination,
``_eliminate``, serves the first four; ``mat_mul`` multiplies the nonzeros of
the scaled rows and divides once per nonzero result entry. Results are the
same dense tuples of ``Fraction`` as before, equal entry for entry to plain
``Fraction`` loops, since the reduced row-echelon form is unique; zero and
small integers among them are shared ``Fraction`` objects. ``frac`` passes a
``Fraction`` through unchanged and converts anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import attrgetter

from .errors import MismatchError

Vec = tuple[Fraction, ...]
Rows = tuple[Vec, ...]


def frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise MismatchError("floating point values are not accepted; use int or 'p/q'")
    return Fraction(x)


def _vec(row) -> Vec:
    """row as a tuple of Fractions, converting entries only when needed."""
    row = tuple(row)
    if set(map(type, row)) <= {Fraction}:
        return row
    return tuple(map(frac, row))


def _kernel_names(n: int) -> tuple[str, ...]:
    return tuple(f"k{i}" for i in range(n))


@dataclass(frozen=True)
class VectObj:
    vars: tuple[str, ...]

    def __post_init__(self):
        names = tuple(str(v) for v in self.vars)
        if len(set(names)) != len(names):
            raise MismatchError(f"duplicate variable names in {names!r}")
        object.__setattr__(self, "vars", names)

    @property
    def dim(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise MismatchError(f"unknown variable {name!r}") from None


ZERO_SPACE = VectObj(())


@dataclass(frozen=True)
class LinMap:
    dom: VectObj
    cod: VectObj
    matrix: Rows

    def __post_init__(self):
        rows = tuple(map(_vec, self.matrix))
        if len(rows) != self.cod.dim:
            raise MismatchError(
                f"matrix has {len(rows)} rows, codomain dimension is {self.cod.dim}"
            )
        for row in rows:
            if len(row) != self.dom.dim:
                raise MismatchError(
                    f"matrix row length {len(row)} != domain dimension {self.dom.dim}"
                )
        object.__setattr__(self, "matrix", rows)

    def apply(self, vec) -> Vec:
        v = tuple(frac(x) for x in vec)
        if len(v) != self.dom.dim:
            raise MismatchError("vector length does not match the domain dimension")
        return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in self.matrix)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.matrix)

    def to_json(self) -> dict:
        return {
            "dom": list(self.dom.vars),
            "cod": list(self.cod.vars),
            "matrix": [[str(x) for x in row] for row in self.matrix],
        }


# -- exact matrix kernels ---------------------------------------------------
#
# Scaling a row by the lcm of its denominators keeps its row space and, for a
# row of an augmented matrix [A | B], the solutions of A X = B.

# Fractions are immutable, so results may share these.
_SMALL_MAX = 64
_SMALL = {n: Fraction(n) for n in range(-_SMALL_MAX, _SMALL_MAX + 1)}
_ZERO, _ONE = _SMALL[0], _SMALL[1]
_NUM = attrgetter("numerator")


def _q(n: int, d: int) -> Fraction:
    """The Fraction n/d for d > 0, sharing zero and small integers."""
    if not n:
        return _ZERO
    if d == 1 or not n % d:
        n //= d
        return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else Fraction(n)
    return Fraction(n, d)


def _int_row(row) -> tuple[int, dict[int, int]]:
    """(d, the nonzeros of row * d by column) for d the lcm of the row's denominators."""
    nums = tuple(map(_NUM, row))
    cols = tuple(compress(range(len(nums)), nums))
    dens = [row[j].denominator for j in cols]
    d = lcm(*dens)
    if d == 1:
        return 1, {j: nums[j] for j in cols}
    return d, {j: nums[j] * (d // q) for j, q in zip(cols, dens)}


def _int_rows(rows) -> list[dict[int, int]]:
    return [_int_row(row)[1] for row in rows]


def _eliminate(m: list[dict[int, int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of sparse int rows, in place.

    Returns the pivot columns. Afterwards row i < len(pivots) of m has a
    positive entry at pivots[i] and no other pivot column, and the rows below
    are empty: dividing each kept row by its pivot gives the RREF. Each pivot
    row is made primitive with a positive pivot p, and p clears column c from
    a row with entry f as (p/g)*row - (f/g)*prow, g = gcd(p, f). A row scaled
    by p/g != 1 is then divided by the gcd of its entries: without that, the
    scalings multiply and the integers grow exponentially on dense input. A
    row that was not scaled only had a multiple of a primitive row subtracted.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if c in m[i]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        g = gcd(*prow.values())
        if prow[c] < 0:
            g = -g
        if g != 1:
            for j in prow:
                prow[j] //= g
        p = prow[c]
        entries = tuple(prow.items())
        for i, row in enumerate(m):
            f = row.get(c)
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for j in row:
                        row[j] *= a
                for j, y in entries:
                    x = row.get(j, 0) - b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if a != 1:
                    g = gcd(*row.values())
                    if g > 1:
                        for j in row:
                            row[j] //= g
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def _reduced(m: list[dict[int, int]], pivots, ncols: int) -> Rows:
    """The RREF rows of eliminated int rows: each kept row over its pivot."""
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        v = [_ZERO] * ncols
        for j, x in row.items():
            v[j] = _q(x, p)
        out.append(tuple(v))
    return tuple(out)


def rref(rows, ncols: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    m = _int_rows(rows)
    pivots = _eliminate(m, ncols)
    return _reduced(m, pivots, ncols), tuple(pivots)


def rank_of(rows, ncols: int) -> int:
    return len(_eliminate(_int_rows(rows), ncols))


def kernel_basis(rows, ncols: int) -> Rows:
    """Canonical basis of the right kernel (itself in row-echelon form)."""
    m = _int_rows(rows)
    pivots = _eliminate(m, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # x[fc] = 1 and x[pc] = -row[fc] / row[pc], scaled by the lcm of those pivots
        used = [(row[fc], row[pc], pc) for row, pc in zip(m, pivots) if fc in row]
        scale = lcm(*(p for _, p, _ in used))
        v = {fc: scale}
        for f, p, pc in used:
            v[pc] = -f * (scale // p)
        basis.append(v)
    return _reduced(basis, _eliminate(basis, ncols), ncols)


def solve_matrix(a_rows, ncols: int, b_rows, bcols: int):
    """One exact solution X of A @ X = B, or None if inconsistent.

    Free coordinates are set to zero, so the solution is unique exactly when A
    has full column rank (the only case the callers rely on).
    """
    m = _int_rows(tuple(ar) + tuple(br) for ar, br in zip(a_rows, b_rows))
    pivots = _eliminate(m, ncols + bcols)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [(_ZERO,) * bcols] * ncols
    for row, p in zip(m, pivots):
        d = row[p]
        x[p] = tuple(_q(row.get(j, 0), d) for j in range(ncols, ncols + bcols))
    return tuple(x)


def mat_mul(a_rows, b_rows, inner: int) -> Rows:
    """A @ B, computed as (A d_i) @ (B e) over the ints, then divided by d_i e.

    d_i is the lcm of the denominators in row i of A, e that of all of B.
    """
    # inner >= 1; callers special-case degenerate shapes.
    ncols = len(b_rows[0])
    scaled = [_int_row(row) for row in b_rows[:inner]]
    e = lcm(*(d for d, _ in scaled))
    b_support = [[(j, y * (e // d)) for j, y in row.items()] for d, row in scaled]
    out = []
    for row in a_rows:
        d, a = _int_row(row)
        acc = [0] * ncols
        for k, x in a.items():
            for j, y in b_support[k]:
                acc[j] += x * y
        d *= e
        v = [_ZERO] * ncols
        for j in compress(range(ncols), acc):
            v[j] = _q(acc[j], d)
        out.append(tuple(v))
    return tuple(out)


def mat_identity(n: int) -> Rows:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def mat_transpose(rows, ncols: int) -> Rows:
    return tuple(tuple(row[j] for row in rows) for j in range(ncols))


# -- categorical operations -------------------------------------------------

def identity(obj: VectObj) -> LinMap:
    return LinMap(obj, obj, mat_identity(obj.dim))


def zero_map(dom: VectObj, cod: VectObj) -> LinMap:
    return LinMap(dom, cod, ((_ZERO,) * dom.dim,) * cod.dim)


def compose(g: LinMap, f: LinMap) -> LinMap:
    if f.cod != g.dom:
        raise MismatchError("compose: codomain of f must equal domain of g")
    if f.cod.dim == 0 or f.dom.dim == 0 or g.cod.dim == 0:
        return zero_map(f.dom, g.cod)
    return LinMap(f.dom, g.cod, mat_mul(g.matrix, f.matrix, f.cod.dim))


def terminal_obj() -> VectObj:
    return ZERO_SPACE


def terminal_map(obj: VectObj) -> LinMap:
    return zero_map(obj, ZERO_SPACE)


def classify(f: LinMap) -> tuple[bool, bool]:
    """(mono, epi) from one rank: full column rank and full row rank."""
    r = rank_of(f.matrix, f.dom.dim)
    return r == f.dom.dim, r == f.cod.dim


def product(x: VectObj, y: VectObj) -> tuple[VectObj, LinMap, LinMap]:
    # Side tags keep the disjoint union of names collision-free.
    obj = VectObj(tuple("L." + v for v in x.vars) + tuple("R." + v for v in y.vars))
    p1 = tuple(
        tuple(_ONE if j == i else _ZERO for j in range(obj.dim)) for i in range(x.dim)
    )
    p2 = tuple(
        tuple(_ONE if j == x.dim + i else _ZERO for j in range(obj.dim))
        for i in range(y.dim)
    )
    return obj, LinMap(obj, x, p1), LinMap(obj, y, p2)


def product_map(f: LinMap, g: LinMap) -> LinMap:
    dom, _, _ = product(f.dom, g.dom)
    cod, _, _ = product(f.cod, g.cod)
    rows = []
    for row in f.matrix:
        rows.append(tuple(row) + (_ZERO,) * g.dom.dim)
    for row in g.matrix:
        rows.append((_ZERO,) * f.dom.dim + tuple(row))
    return LinMap(dom, cod, tuple(rows))


def pullback(f1: LinMap, f2: LinMap) -> tuple[VectObj, LinMap, LinMap]:
    if f1.cod != f2.cod:
        raise MismatchError("pullback: maps must share their codomain")
    d1, d2 = f1.dom.dim, f2.dom.dim
    rows = [tuple(r1) + tuple(-x for x in r2) for r1, r2 in zip(f1.matrix, f2.matrix)]
    basis = kernel_basis(rows, d1 + d2)
    obj = VectObj(_kernel_names(len(basis)))
    p1 = LinMap(obj, f1.dom, tuple(tuple(b[i] for b in basis) for i in range(d1)))
    p2 = LinMap(obj, f2.dom, tuple(tuple(b[d1 + i] for b in basis) for i in range(d2)))
    return obj, p1, p2


def equalizer(f: LinMap, g: LinMap) -> tuple[VectObj, LinMap]:
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchError("equalizer: maps must be a parallel pair")
    rows = [
        tuple(a - b if b else a for a, b in zip(rf, rg)) for rf, rg in zip(f.matrix, g.matrix)
    ]
    basis = kernel_basis(rows, f.dom.dim)
    obj = VectObj(_kernel_names(len(basis)))
    arrow = LinMap(obj, f.dom, tuple(tuple(b[i] for b in basis) for i in range(f.dom.dim)))
    return obj, arrow


def image_factorize(f: LinMap) -> tuple[LinMap, LinMap]:
    cols_as_rows = mat_transpose(f.matrix, f.dom.dim)
    basis, pivots = rref(cols_as_rows, f.cod.dim)
    mid = VectObj(_kernel_names(len(basis)))
    inj = LinMap(mid, f.cod, tuple(tuple(b[i] for b in basis) for i in range(f.cod.dim)))
    surj_rows = []
    for i, p in enumerate(pivots):
        # RREF pivots are unit coordinates, so the i-th image coordinate of a
        # column is just its entry at pivot p.
        surj_rows.append(tuple(f.matrix[p][j] for j in range(f.dom.dim)))
    surj = LinMap(f.dom, mid, tuple(surj_rows))
    return surj, inj


def lift(ms, fs) -> LinMap | None:
    """The u with m_i . u = f_i for jointly mono ms, or None; see ``carriers.lift``.

    u solves [m_1; ...; m_k] u = [f_1; ...; f_k].
    """
    a = [row for m in ms for row in m.matrix]
    b = [row for f in fs for row in f.matrix]
    dom, apex = ms[0].dom, fs[0].dom
    sol = solve_matrix(a, dom.dim, b, apex.dim)
    return None if sol is None else LinMap(apex, dom, sol)


def right_inverse(f: LinMap) -> Rows | None:
    """A matrix r with f . r = id (free coordinates zero), or None if f is not epi."""
    return solve_matrix(f.matrix, f.dom.dim, mat_identity(f.cod.dim), f.cod.dim)


def coordinate_map(dom: VectObj, cod: VectObj, assignment: dict[str, str]) -> LinMap:
    """Send each assigned domain variable to its codomain variable, the rest to 0."""
    for k, v in assignment.items():
        dom.index(k)
        cod.index(v)
    rows = [[_ZERO] * dom.dim for _ in range(cod.dim)]
    for k, v in assignment.items():
        rows[cod.index(v)][dom.index(k)] = _ONE
    return LinMap(dom, cod, tuple(tuple(r) for r in rows))


def projection_onto(dom: VectObj, names) -> LinMap:
    obs = VectObj(tuple(names))
    return coordinate_map(dom, obs, {n: n for n in obs.vars})


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    ambient: VectObj
    basis: Rows

    def __post_init__(self):
        rows = tuple(map(_vec, self.basis))
        for row in rows:
            if len(row) != self.ambient.dim:
                raise MismatchError("basis row length does not match the ambient dimension")
        canon, _ = rref(rows, self.ambient.dim)
        object.__setattr__(self, "basis", canon)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside."""
        v = [frac(x) for x in vec]
        if len(v) != self.ambient.dim:
            raise MismatchError("vector length does not match the ambient dimension")
        cs = []
        for row in self.basis:
            p = next(i for i, x in enumerate(row) if x != 0)
            c = v[p]
            cs.append(c)
            v = [a - c * b for a, b in zip(v, row)]
        if any(x != 0 for x in v):
            return None
        return tuple(cs)

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(row) for row in self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient, ())
        a, b = self.basis, other.basis
        n = self.ambient.dim
        # columns of [A^T | -B^T]; kernel vectors give coefficients of common points
        rows = tuple(
            tuple(a[i][r] for i in range(len(a))) + tuple(-b[j][r] for j in range(len(b)))
            for r in range(n)
        )
        span = []
        for lam in kernel_basis(rows, len(a) + len(b)):
            vec = [Fraction(0)] * n
            for i in range(len(a)):
                for r in range(n):
                    vec[r] += lam[i] * a[i][r]
            span.append(tuple(vec))
        return Subspace(self.ambient, tuple(span))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, self.basis + other.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise MismatchError("subspaces live in different ambient spaces")

    def to_json(self) -> dict:
        return {
            "ambient": list(self.ambient.vars),
            "dim": self.dim,
            "basis": [[str(x) for x in row] for row in self.basis],
        }


def column_space(f: LinMap) -> Subspace:
    return Subspace(f.cod, mat_transpose(f.matrix, f.dom.dim))
