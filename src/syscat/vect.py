"""Finite-dimensional vector spaces over Q with exact linear maps.

The module has one matrix format. A row is a canonical sparse int row
``(d, {col: n})``: the row whose entry in each listed column is n/d and zero
elsewhere, with d > 0, no zero n, and gcd(d, *n) == 1, so two equal rational
rows are equal Python values; the zero row is ``(1, {})``. A ``LinMap`` keeps
one row over ``dom.dim`` columns per codomain coordinate, so a map's columns
are the images of the domain basis vectors. A ``Subspace`` keeps the rows of
its reduced row-echelon basis, which makes subspace equality a plain ``==``.
Rows are shared between values and never mutated.

The exact kernels (``rref``, ``rank_of``, ``kernel_basis``, ``solve_matrix``,
``mat_mul``) take and return rows; they read any row ``(d, m)`` with d > 0,
except ``mat_mul``'s right factor, and return canonical rows. One
fraction-free elimination, ``_eliminate_forward``, serves them all. It
pivots only on the columns its caller allows, in one of two orders. By
default it takes the column in the fewest rows (ties to the highest column)
to keep the fill down, and each pivot row retires once it has cleared its
column. ``kernel_basis`` and ``rank_of`` allow every column: the first
back-substitutes (``_back_substitute``) one kernel vector per free column,
the second counts the steps, since a rank needs no column order. Asked for
``reduced`` rows, it takes the columns from left to right and clears each
pivot column from the retired rows too, so its pivot rows are the RREF. That
serves the callers that need the leftmost pivot set: ``rref``, for the
unique RREF; ``solve_matrix``, for the solution with free coordinates zero;
``Subspace.intersect``, for Zassenhaus's first-half-first intersection; and
the canonicalizing pass of ``kernel_basis``. The min-degree ties leave the
low columns free, so the kernel vectors mostly are the kernel's RREF
already; where one is not, that pass canonicalizes them, so the output is
the same. ``circuits.phenome`` allows only the columns of the variables it
hides, so the rows that never pivot are the equations of the projection onto
the others, and it back-substitutes their kernel through the pivot rows to
check them.
``mat_mul(A, B)`` multiplies each result row's nonzeros over the common
denominator of the rows of B it reads and divides by one gcd. B's rows must
be canonical, because a row it selects is returned as it is; every caller
passes the rows of a ``LinMap``, rows taken from them, or canonical basis
rows: ``compose``, ``commutes``, the candidate ``u`` that ``lift`` checks,
and the parts' bases ``circuits.glue`` combines. Identities, zero maps,
product projections and coordinate maps are built as rows directly.

Most maps an interconnection builds only re-index variables. Equalizer
arrows, pullback projections and subobject inclusions are transposed RREF
bases, so each holds the unit row ``(1, {j: 1})`` for every coordinate j of
its domain; coordinate maps often do too. Six exact shortcuts test such
structure in one pass over the nonzeros, and multiply or eliminate only where
it is absent:

- ``mat_mul``: a unit row ``(1, {k: 1})`` of A yields row k of B as it is,
  and an empty row of A yields ``(1, {})``; only the other rows multiply.
- ``_transpose``: a column holding a single entry n/q becomes
  ``(q // g, {i: n // g})`` with g = gcd(n, q), without the lcm and the gcd
  over a column; most columns of pullback projections are such columns.
- ``lift``: a unit row per domain coordinate in the stacked family proves it
  jointly mono and leaves one candidate for row j of the mediating map, the
  cone's row beside the unit row of j. One ``mat_mul`` checks the candidate
  against every row of the cone; if any differs, no map exists. Otherwise
  ``solve_matrix``.
- ``classify``: an inclusion's kept basis in canonical RREF has distinct
  pivots, so its length is the rank, and the inclusion's rows are not built.
  Otherwise r unit rows of distinct columns prove the rank is at least r, so
  r is the rank when it reaches min(dom.dim, cod.dim): a unit row per domain
  coordinate, as above, or per codomain coordinate, as in a projection onto
  observed variables. Otherwise ``rank_of``.
- ``kernel_basis``: rows whose supports are pairwise disjoint constrain
  disjoint columns, and ``_disjoint_kernel`` writes the kernel's RREF
  directly; this covers every pullback of coordinate maps and every kernel
  of zero maps. Otherwise forward elimination in min-degree order and
  back-substitution; vectors that already are the kernel's RREF (none has
  an entry left of its own free column) skip the canonicalizing pass.
- ``Subspace``: rows that already are canonical RREF (each nonzero and
  primitive, its pivot its first column with value 1, pivots increasing, no
  row touching another's pivot) are kept as given. Otherwise ``rref``.

The inclusions ``equalizer``, ``image_factorize``, ``subobject_map`` and
``circuits.glue`` build keep their canonical basis and transpose it on first
read of their rows; ``image`` and ``classify`` read the basis, so an
inclusion whose rows nothing reads, such as the behavior ``behavior`` prints,
never builds them. ``_inclusion`` checks the basis once, and ``classify``
and ``image`` read that verdict; ``annihilates`` tests A . K = 0 against the
basis directly.

Computed subobjects (kernels, images, pullback objects) come back with
generated ``k<i>`` coordinate names.

``Fraction``s exist only at the boundary. The dense constructors
``LinMap(dom, cod, matrix)`` and ``Subspace(ambient, basis)`` take rows of
ints, ``Fraction``s or ``'p/q'`` strings, each entry passed through ``frac``,
and reject floats; nothing in this module rounds. The dense views
``LinMap.matrix`` and ``Subspace.basis`` are tuples of ``Fraction`` rows, the
entry n/d of a row as ``Fraction(n, d)``, computed on first read and kept.
``to_sparse`` and ``to_dense`` convert between the two forms; ``frac`` passes
a ``Fraction`` through unchanged and converts anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from operator import attrgetter

from .errors import MismatchError

Row = tuple[int, dict[int, int]]
Rows = tuple[Row, ...]
Vec = tuple[Fraction, ...]
Dense = tuple[Vec, ...]


def frac(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise MismatchError("floating point values are not accepted; use int or 'p/q'")
    return Fraction(x)


def _vec(row) -> Vec:
    return tuple(map(frac, row))


def _kernel_names(n: int) -> tuple[str, ...]:
    return tuple(f"k{i}" for i in range(n))


# -- the boundary: dense Fraction rows <-> canonical sparse rows --------------

_NUM = attrgetter("numerator")


def _int_row(row: Vec) -> Row:
    """The canonical row of a dense row of Fractions.

    d is the lcm of the denominators. It makes the row primitive: the highest
    power of a prime in d divides some denominator exactly, and so not that
    entry's scaled numerator.
    """
    nums = tuple(map(_NUM, row))
    cols = tuple(compress(range(len(nums)), nums))
    dens = [row[j].denominator for j in cols]
    d = lcm(*dens)
    return d, {j: nums[j] * (d // q) for j, q in zip(cols, dens)}


def to_sparse(matrix) -> Rows:
    """The canonical rows of a dense matrix of ints, Fractions or 'p/q' strings."""
    return tuple(_int_row(_vec(row)) for row in matrix)


def to_dense(rows, ncols: int) -> Dense:
    """The dense matrix of rows over ncols columns, as tuples of Fractions."""
    out = []
    for d, m in rows:
        v = [Fraction(0)] * ncols
        for j, n in m.items():
            v[j] = Fraction(n, d)
        out.append(tuple(v))
    return tuple(out)


def _canon(d: int, m: dict[int, int]) -> Row:
    """The canonical row of m/d, for d > 0 and m without zeros."""
    g = gcd(d, *m.values())
    if g == 1:
        return d, m
    return d // g, {j: x // g for j, x in m.items()}


def _transpose(rows, ncols: int) -> Rows:
    """The canonical rows of the transpose: row j holds column j of rows."""
    cols: list[list[tuple[int, int, int]]] = [[] for _ in range(ncols)]
    for i, (d, m) in enumerate(rows):
        for j, n in m.items():
            cols[j].append((i, n, d))
    out = []
    for col in cols:
        if len(col) == 1:  # n/q alone: its reduced fraction is the canonical row
            ((i, n, q),) = col
            g = gcd(n, q)
            out.append((q // g, {i: n // g}))
            continue
        d = lcm(*(q for _, _, q in col))
        if d == 1:
            out.append((1, {i: n for i, n, _ in col}))
        else:
            out.append(_canon(d, {i: n * (d // q) for i, n, q in col}))
    return tuple(out)


def _unit_rows(cols) -> Rows:
    """Row i has a single 1, in column cols[i]."""
    return tuple((1, {j: 1}) for j in cols)


def _zero_rows(n: int) -> Rows:
    return tuple((1, {}) for _ in range(n))


def _check_columns(rows, ncols: int, what: str):
    for _, m in rows:
        if m and (max(m) >= ncols or min(m) < 0):
            raise MismatchError(f"{what} has a column outside dimension {ncols}")


def _row_hash(rows) -> int:
    return hash(tuple((d, frozenset(m.items())) for d, m in rows))


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

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vars)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise MismatchError(f"unknown variable {name!r}") from None


ZERO_SPACE = VectObj(())


@dataclass(frozen=True, init=False)
class LinMap:
    """A linear map dom -> cod: one canonical row over dom.dim columns per coordinate of cod."""

    dom: VectObj
    cod: VectObj
    rows: Rows
    _basis = None  # the basis an ``_inclusion`` keeps, one row per domain coordinate
    _rref = None  # that basis, if it is canonical RREF

    @cached_property
    def rows(self) -> Rows:
        """Set by every constructor but ``_inclusion``, whose rows, the
        transpose of its basis, are built on first read and kept.

        The dataclass records this descriptor as the field's default, which
        nothing reads: ``__init__`` is written out, not generated.
        """
        return _transpose(self._basis, self.cod.dim)

    def __init__(self, dom: VectObj, cod: VectObj, matrix):
        """The map with a dense matrix: cod.dim rows of dom.dim ints, Fractions or 'p/q' strings."""
        dense = tuple(map(_vec, matrix))
        for row in dense:
            if len(row) != dom.dim:
                raise MismatchError(
                    f"matrix row length {len(row)} != domain dimension {dom.dim}"
                )
        object.__setattr__(self, "matrix", dense)
        self._set(dom, cod, tuple(map(_int_row, dense)))

    @classmethod
    def from_rows(cls, dom: VectObj, cod: VectObj, rows: Rows) -> LinMap:
        """The map with the given canonical rows."""
        f = cls.__new__(cls)
        f._set(dom, cod, rows)
        return f

    def _set(self, dom: VectObj, cod: VectObj, rows: Rows):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        if len(self.rows) != self.cod.dim:
            raise MismatchError(
                f"matrix has {len(self.rows)} rows, codomain dimension is {self.cod.dim}"
            )
        _check_columns(self.rows, self.dom.dim, "a matrix row")

    def __hash__(self):
        return hash((self.dom, self.cod, _row_hash(self.rows)))

    @cached_property
    def matrix(self) -> Dense:
        """The dense matrix: cod.dim rows of dom.dim Fractions."""
        return to_dense(self.rows, self.dom.dim)

    def apply(self, vec) -> Vec:
        v = tuple(frac(x) for x in vec)
        if len(v) != self.dom.dim:
            raise MismatchError("vector length does not match the domain dimension")
        return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in self.matrix)

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self.matrix)


# -- exact matrix kernels ---------------------------------------------------
#
# Scaling a row by a positive integer keeps its row space and, for a row of an
# augmented matrix [A | B], the solutions of A X = B; elimination reads only
# the int part of each row.

def _ints(rows) -> list[dict[int, int]]:
    """Fresh int rows proportional to rows, for elimination in place."""
    return [m.copy() for _, m in rows]


def _stack(a_rows, b_rows, shift: int, sign: int) -> list[dict[int, int]]:
    """Fresh int rows proportional to those of A + sign * B, B's columns moved right by shift.

    shift = the column count of A sets the two side by side, [A | sign B].
    """
    out = []
    for (da, ma), (db, mb) in zip(a_rows, b_rows):
        d = lcm(da, db)
        sa, sb = d // da, sign * (d // db)
        row = {j: x * sa for j, x in ma.items()}
        for j, y in mb.items():
            j += shift
            x = row.get(j, 0) + y * sb
            if x:
                row[j] = x
            else:
                del row[j]
        out.append(row)
    return out


def _eliminate_forward(m: list[dict[int, int]], cols, reduced: bool = False) -> list[tuple[int, int]]:
    """Fraction-free elimination of sparse int rows, in place, pivoting only on
    the columns in ``cols``.

    Each step makes its pivot row primitive with a positive pivot p, and p
    clears column c from a row with entry f as (p/g)*row - (f/g)*prow,
    g = gcd(p, f). A row scaled by p/g != 1 is then divided by the gcd of its
    entries: without that, the scalings multiply and the integers grow
    exponentially on dense input. A row that was not scaled only had a
    multiple of a primitive row subtracted. The pivot row is the shortest row
    that holds c and has not pivoted (ties to the lower row index).

    By default each step pivots on the column of cols that appears in the
    fewest rows (ties to the highest column), so the fill stays small on
    sparse input such as circuit equations (Markowitz 1957; Tinney and Walker
    1967). The pivot row clears its column from the other rows and retires:
    it leaves the column index ``where`` and is never updated again. A lazy
    heap of (row count, -column) finds the next pivot: an entry whose count is
    stale is dropped, and each step pushes a fresh entry for every column of
    cols in the pivot row.

    With ``reduced`` the steps take the columns of cols from left to right,
    and a retired row stays in ``where`` for its other columns, so every
    later pivot column is cleared from it too. The pivot rows then end with
    no pivot column but their own, and each over its pivot is a row of the
    RREF: the pivots are the leftmost independent columns of cols.

    Returns the steps (pivot row, pivot column) in order. A pivot row holds a
    positive entry at its pivot column and no earlier step's pivot column.
    The rows that never pivot end with no column of cols: empty when cols
    holds every column, and otherwise the equations that the rows imply on
    the other columns.
    """
    where: dict[int, set[int]] = {}
    for i, row in enumerate(m):
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(0, j) if reduced else (len(rs), -j) for j, rs in where.items() if j in cols]
    heapify(heap)
    steps: dict[int, int] = {}  # pivot row -> pivot column, in step order
    while heap:
        count, c = heappop(heap)
        if reduced:
            rs = where[c]
            live = rs - steps.keys()
        else:
            c = -c
            rs = live = where[c]
            if count != len(rs):
                continue
        if not live:
            continue
        _, r = min((len(m[i]), i) for i in live)
        prow = m[r]
        g = gcd(*prow.values())
        if prow[c] < 0:
            g = -g
        if g != 1:
            for j in prow:
                prow[j] //= g
        p = prow[c]
        steps[r] = c
        for j in (c,) if reduced else prow:
            where[j].discard(r)
        entries = tuple((j, y) for j, y in prow.items() if j != c)
        # inline: a per-row helper slows laws' thousands of tiny eliminations
        for i in rs:
            row = m[i]
            f = row.pop(c)
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in entries:
                x = row.get(j)
                if x is None:
                    row[j] = -b * y
                    where[j].add(i)
                else:
                    x -= b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
            if a != 1:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        rs.clear()
        if not reduced:
            for j, _ in entries:
                if j in cols:
                    heappush(heap, (len(where[j]), -j))
    return list(steps.items())


def _reduced(m: list[dict[int, int]], steps) -> Rows:
    """The canonical RREF rows of int rows after a ``reduced`` elimination:
    each pivot row over its pivot."""
    return tuple(_canon(m[r][c], m[r]) for r, c in steps)


def rref(rows, ncols: int) -> tuple[Rows, tuple[int, ...]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    m = _ints(rows)
    steps = _eliminate_forward(m, range(ncols), reduced=True)
    return _reduced(m, steps), tuple(c for _, c in steps)


def rank_of(rows, ncols: int) -> int:
    """The rank over Q: the number of forward-elimination steps. ncols is the
    column count; only the columns present are read."""
    return len(_eliminate_forward(_ints(rows), range(ncols)))


def _unit_rows_at(rows) -> dict[int, int]:
    """For each column j that has one, the index of the first row equal to the
    unit row ``(1, {j: 1})``.

    The rows it names are rows of the identity, so the rank of rows is at
    least its size; with one entry per column, rows have full column rank.
    """
    at: dict[int, int] = {}
    for i, (d, m) in enumerate(rows):
        if d == 1 and len(m) == 1:
            for j, x in m.items():
                if x == 1:
                    at.setdefault(j, i)
    return at


def _disjoint_kernel(rows, ncols: int) -> Rows | None:
    """The canonical kernel basis of rows no two of which share a column, or
    None if two do.

    Each row then constrains only its own columns. For a row with last column
    c, each other column j of it gives e_j - (a_j / a_c) e_c; a column in no
    row gives e_j. Each such j is the first column of its vector and lies in no
    other vector, so these vectors in order of j are the kernel's RREF.
    """
    seen: set[int] = set()
    for _, m in rows:
        if not seen.isdisjoint(m):
            return None
        seen.update(m)
    tied: dict[int, Row] = {}
    for _, m in rows:
        if len(m) > 1:
            c = max(m)
            ac = m[c]
            for j, aj in m.items():
                if j != c:
                    g = gcd(aj, ac)
                    p, q = aj // g, ac // g
                    if q < 0:
                        p, q = -p, -q
                    tied[j] = (q, {j: q, c: -p})
    return tuple(
        tied[j] if j in tied else (1, {j: 1}) for j in range(ncols) if j in tied or j not in seen
    )


def _back_substitute(x: dict[int, int], back) -> int:
    """Solve the pivot rows ``back``, pairs (pivot row, pivot column) latest
    step first, for their pivot columns, in place, given x's other coordinates.

    x is kept integral: a pivot p that does not divide the row's sum scales x
    by p/gcd. Returns the product of those scalings, the factor by which the
    coordinates x held on entry have grown.
    """
    scale = 1
    for prow, c in back:
        s = 0
        for j, y in prow.items():
            v = x.get(j)
            if v:
                s += y * v
        if s:
            p = prow[c]
            g = gcd(s, p)
            if g != p:
                a = p // g
                scale *= a
                for j in x:
                    x[j] *= a
            x[c] = -s // g
    return scale


def kernel_basis(rows, ncols: int) -> Rows:
    """Canonical basis of the right kernel (itself in row-echelon form).

    Rows with pairwise disjoint supports give their kernel directly. Otherwise
    the rows are eliminated forward in min-degree order, and one vector per
    free column fc is back-substituted through the pivot rows in reverse:
    x[fc] = 1, the other free columns 0. When no vector has an entry left of
    its own free column, these vectors are the kernel's RREF, which is unique;
    high-column ties leave the low columns free, so that is the common case.
    Otherwise a ``reduced`` elimination canonicalizes them.
    """
    direct = _disjoint_kernel(rows, ncols)
    if direct is not None:
        return direct
    m = _ints(rows)
    steps = _eliminate_forward(m, range(ncols))
    pivot_cols = {c for _, c in steps}
    back = [(m[r], c) for r, c in reversed(steps)]
    basis = []
    canonical = True
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        x = {fc: 1}
        _back_substitute(x, back)
        canonical = canonical and min(x) == fc
        basis.append(x)
    if canonical:
        return tuple(_canon(x[min(x)], x) for x in basis)
    return _reduced(basis, _eliminate_forward(basis, range(ncols), reduced=True))


def solve_matrix(a_rows, ncols: int, b_rows) -> Rows | None:
    """The rows of one exact solution X of A @ X = B, or None if inconsistent.

    [A | B] is eliminated ``reduced`` on A's columns, so the pivots are A's
    leftmost independent columns; a row left nonzero reads 0 = a nonzero row
    of B. The other, free coordinates of X are zero. That makes X unique
    even when A has dependent columns: ``right_inverse`` of a map that is not
    mono relies on it, and so do the law instances built from one.
    """
    m = _stack(a_rows, b_rows, ncols, 1)
    steps = _eliminate_forward(m, range(ncols), reduced=True)
    if len(steps) < sum(map(bool, m)):
        return None
    x = list(_zero_rows(ncols))
    for r, c in steps:
        row = m[r]
        x[c] = _canon(row[c], {j - ncols: y for j, y in row.items() if j >= ncols})
    return tuple(x)


def mat_mul(a_rows, b_rows) -> Rows:
    """A @ B, for canonical rows B.

    A unit row ``(1, {k: 1})`` of A selects row k of B, returned as is, and an
    empty row gives ``(1, {})``. Any other row i is computed as
    (A d_i) @ (B e_i) over the ints, then divided by d_i e_i: d_i is the
    denominator of row i of A and e_i the lcm of the denominators of the rows
    of B that row i uses, so rows of B with large denominators inflate only
    the result rows that read them.
    """
    out = []
    for d, a in a_rows:
        if len(a) == 1 and d == 1:
            (k,) = a
            if a[k] == 1:
                out.append(b_rows[k])
                continue
        elif not a:
            out.append((1, {}))
            continue
        e = lcm(*(b_rows[k][0] for k in a))
        acc: dict[int, int] = {}
        for k, x in a.items():
            q, m = b_rows[k]
            if q != e:
                x *= e // q
            for j, y in m.items():
                acc[j] = acc.get(j, 0) + x * y
        if 0 in acc.values():
            acc = {j: v for j, v in acc.items() if v}
        out.append(_canon(d * e, acc))
    return tuple(out)


def annihilates(rows, vecs) -> bool:
    """Whether every row is orthogonal to every vector: A . V^T = 0, for rows A
    and vectors V over the same columns, both (d, m) with d > 0.

    One sparse dot per pair, over the row's entries; a zero test reads no
    denominator, so nothing is transposed, multiplied out or reduced.
    """
    for _, v in vecs:
        for _, a in rows:
            s = 0
            for j, x in a.items():
                y = v.get(j)
                if y:
                    s += x * y
            if s:
                return False
    return True


# -- categorical operations -------------------------------------------------

def identity(obj: VectObj) -> LinMap:
    return LinMap.from_rows(obj, obj, _unit_rows(range(obj.dim)))


def zero_map(dom: VectObj, cod: VectObj) -> LinMap:
    # one empty row per codomain coordinate: no column to check
    f = LinMap.__new__(LinMap)
    f.__dict__.update(dom=dom, cod=cod, rows=_zero_rows(cod.dim))
    return f


def compose(g: LinMap, f: LinMap) -> LinMap:
    if f.cod != g.dom:
        raise MismatchError("compose: codomain of f must equal domain of g")
    return LinMap.from_rows(f.dom, g.cod, mat_mul(g.rows, f.rows))


def commutes(a: LinMap, b: LinMap, c: LinMap, d: LinMap) -> bool:
    """Whether a . b == c . d, for a square checked by ``carriers.commutes``.

    ``mat_mul`` returns canonical rows, zero rows for an empty inner
    dimension, so equal products are equal values.
    """
    return mat_mul(a.rows, b.rows) == mat_mul(c.rows, d.rows)


def terminal_obj() -> VectObj:
    return ZERO_SPACE


def terminal_map(obj: VectObj) -> LinMap:
    return zero_map(obj, ZERO_SPACE)


def classify(f: LinMap) -> tuple[bool, bool]:
    """(mono, epi) from one rank: full column rank and full row rank.

    An inclusion's kept basis in canonical RREF has distinct pivots, so its
    rows are independent and their number is the rank; its rows are not
    built. Otherwise r unit rows of distinct columns prove the rank is at
    least r, so when r is min(dom.dim, cod.dim) it is the rank, without
    elimination.
    """
    if f._rref is not None:
        r = len(f._rref)
    else:
        r = len(_unit_rows_at(f.rows))
        if r != min(f.dom.dim, f.cod.dim):
            r = rank_of(f.rows, f.dom.dim)
    return r == f.dom.dim, r == f.cod.dim


def product(x: VectObj, y: VectObj) -> tuple[VectObj, LinMap, LinMap]:
    # Side tags keep the disjoint union of names collision-free.
    obj = VectObj(tuple("L." + v for v in x.vars) + tuple("R." + v for v in y.vars))
    p1 = LinMap.from_rows(obj, x, _unit_rows(range(x.dim)))
    p2 = LinMap.from_rows(obj, y, _unit_rows(range(x.dim, obj.dim)))
    return obj, p1, p2


def pullback(f1: LinMap, f2: LinMap) -> tuple[VectObj, LinMap, LinMap]:
    if f1.cod != f2.cod:
        raise MismatchError("pullback: maps must share their codomain")
    d1, d2 = f1.dom.dim, f2.dom.dim
    rows = [(1, m) for m in _stack(f1.rows, f2.rows, d1, -1)]
    basis = kernel_basis(rows, d1 + d2)
    obj = VectObj(_kernel_names(len(basis)))
    cols = _transpose(basis, d1 + d2)
    return obj, LinMap.from_rows(obj, f1.dom, cols[:d1]), LinMap.from_rows(obj, f2.dom, cols[d1:])


def equalizer(f: LinMap, g: LinMap) -> tuple[VectObj, LinMap]:
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchError("equalizer: maps must be a parallel pair")
    if any(m for _, m in g.rows):
        rows = [(1, m) for m in _stack(f.rows, g.rows, 0, -1)]
    else:  # g = 0, as in every kernel representation; kernel_basis copies f's rows
        rows = f.rows
    basis = kernel_basis(rows, f.dom.dim)
    obj = VectObj(_kernel_names(len(basis)))
    return obj, _inclusion(obj, f.dom, basis)


def image_factorize(f: LinMap) -> tuple[LinMap, LinMap]:
    basis, pivots = rref(_transpose(f.rows, f.dom.dim), f.cod.dim)
    mid = VectObj(_kernel_names(len(basis)))
    inj = _inclusion(mid, f.cod, basis)
    # RREF pivots are unit coordinates, so the i-th image coordinate of a
    # column is just its entry at pivot p.
    surj = LinMap.from_rows(f.dom, mid, tuple(f.rows[p] for p in pivots))
    return surj, inj


def lift(ms, fs) -> LinMap | None:
    """The u with m_i . u = f_i for jointly mono ms, or None; see ``carriers.lift``.

    u solves [m_1; ...; m_k] u = [f_1; ...; f_k]. When the stacked rows of ms
    hold a unit row for every coordinate of their domain, row j of u can only
    be the row of fs beside the unit row of j; u is the answer exactly when it
    reproduces every row of fs. A map's rows are canonical, as ``mat_mul``'s
    are, so that comparison is ``==``. Otherwise the system is solved.
    """
    a = tuple(row for m in ms for row in m.rows)
    b = tuple(row for f in fs for row in f.rows)
    dom, apex = ms[0].dom, fs[0].dom
    at = _unit_rows_at(a)
    if len(at) == dom.dim:
        u = tuple(b[at[j]] for j in range(dom.dim))
        return LinMap.from_rows(apex, dom, u) if mat_mul(a, u) == b else None
    sol = solve_matrix(a, dom.dim, b)
    return None if sol is None else LinMap.from_rows(apex, dom, sol)


def right_inverse(f: LinMap) -> LinMap | None:
    """A map r with f . r = id (free coordinates zero), or None if f is not epi."""
    sol = solve_matrix(f.rows, f.dom.dim, _unit_rows(range(f.cod.dim)))
    return None if sol is None else LinMap.from_rows(f.cod, f.dom, sol)


def coordinate_map(dom: VectObj, cod: VectObj, assignment: dict[str, str]) -> LinMap:
    """Send each assigned domain variable to its codomain variable, the rest to 0."""
    rows: list[dict[int, int]] = [{} for _ in range(cod.dim)]
    for k, v in assignment.items():
        j = dom.index(k)
        rows[cod.index(v)][j] = 1
    return LinMap.from_rows(dom, cod, tuple((1, m) for m in rows))


def projection_onto(dom: VectObj, names) -> LinMap:
    obs = VectObj(tuple(names))
    return coordinate_map(dom, obs, {n: n for n in obs.vars})


# -- subspaces ---------------------------------------------------------------

def _is_canonical_rref(rows) -> bool:
    """Whether rows are already what ``rref`` returns for them.

    That holds when every row is nonzero and primitive with its first column as
    its pivot, the pivot entry equal to the denominator (so the value is 1),
    the pivots strictly increase, and no row touches another row's pivot.
    """
    pivots = set()
    last = -1
    for d, m in rows:
        if not m:
            return False
        c = min(m)
        if c <= last or m[c] != d or gcd(*m.values()) != 1:
            return False
        pivots.add(c)
        last = c
    return all(len(pivots.intersection(m)) == 1 for _, m in rows)


@dataclass(frozen=True, init=False)
class Subspace:
    """A subspace of ambient: the canonical rows of its reduced row-echelon basis."""

    ambient: VectObj
    rows: Rows

    def __init__(self, ambient: VectObj, basis):
        """The span of dense vectors of ints, Fractions or 'p/q' strings."""
        dense = tuple(map(_vec, basis))
        for row in dense:
            if len(row) != ambient.dim:
                raise MismatchError("basis row length does not match the ambient dimension")
        self._set(ambient, tuple(map(_int_row, dense)))

    @classmethod
    def from_rows(cls, ambient: VectObj, rows) -> Subspace:
        """The span of rows (d, m) with d > 0, in any scale."""
        s = cls.__new__(cls)
        s._set(ambient, rows)
        return s

    def _set(self, ambient: VectObj, rows):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        _check_columns(self.rows, self.ambient.dim, "a basis row")
        if _is_canonical_rref(self.rows):
            object.__setattr__(self, "rows", tuple(self.rows))
        else:
            object.__setattr__(self, "rows", rref(self.rows, self.ambient.dim)[0])

    def __hash__(self):
        return hash((self.ambient, _row_hash(self.rows)))

    @cached_property
    def basis(self) -> Dense:
        """The canonical basis as dense rows of Fractions."""
        return to_dense(self.rows, self.ambient.dim)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        v = tuple(frac(x) for x in vec)
        if len(v) != self.ambient.dim:
            raise MismatchError("vector length does not match the ambient dimension")
        return rank_of(self.rows + (_int_row(v),), self.ambient.dim) == self.dim

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return rank_of(other.rows + self.rows, self.ambient.dim) == other.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        # Zassenhaus: reduce the rows (a | a) and (b | 0); the reduced rows whose
        # first half is zero are the intersection's RREF in their second half.
        n = self.ambient.dim
        m = [a | {n + j: x for j, x in a.items()} for _, a in self.rows]
        m += _ints(other.rows)
        steps = _eliminate_forward(m, range(2 * n), reduced=True)
        common = tuple(
            _canon(m[r][c], {j - n: x for j, x in m[r].items()}) for r, c in steps if c >= n
        )
        return Subspace.from_rows(self.ambient, common)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_rows(self.ambient, self.rows + other.rows)

    def __and__(self, other: "Subspace") -> "Subspace":
        return self.intersect(other)

    def __or__(self, other: "Subspace") -> "Subspace":
        return self.sum(other)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient:
            raise MismatchError("subspaces live in different ambient spaces")


def _inclusion(dom: VectObj, cod: VectObj, basis: Rows) -> LinMap:
    """The map sending coordinate i of dom to row i of basis, canonical RREF rows
    over cod.dim columns.

    basis must hold one row per coordinate of dom, each with its columns below
    cod.dim. The map keeps only basis and builds its rows, the transpose, on
    first read. basis is checked once here: ``_rref`` keeps it when it is
    canonical RREF, and ``image`` and ``classify`` read that.
    """
    if len(basis) != dom.dim:
        raise MismatchError(f"basis has {len(basis)} rows, domain dimension is {dom.dim}")
    _check_columns(basis, cod.dim, "a basis row")
    f = LinMap.__new__(LinMap)
    f.__dict__.update(dom=dom, cod=cod, _basis=basis)
    if _is_canonical_rref(basis):
        f.__dict__["_rref"] = basis
    return f


def image(f: LinMap) -> Subspace:
    """The column space of f, in canonical form.

    An inclusion whose kept basis ``_inclusion`` found canonical has that
    basis as its image, neither transposed nor checked again. Any other map's
    columns are transposed and reduced.
    """
    if f._rref is not None:
        s = Subspace.__new__(Subspace)
        s.__dict__.update(ambient=f.cod, rows=f._rref)
        return s
    basis = f._basis
    if basis is None:
        basis = _transpose(f.rows, f.dom.dim)
    return Subspace.from_rows(f.cod, basis)


def subobject_map(universum: VectObj, behavior: Subspace) -> LinMap:
    """The map b0..b{k-1} -> universum sending b_i to behavior's i-th canonical basis vector."""
    if behavior.ambient != universum:
        raise MismatchError("subspace ambient differs from the universum")
    dom = VectObj(tuple(f"b{i}" for i in range(behavior.dim)))
    return _inclusion(dom, universum, behavior.rows)
