"""Independent linear-algebra oracles used to freeze expected values.

All rank/kernel/row-space assertions in the suite are double-checked through
sympy so they never depend on the code path under test.
"""

from fractions import Fraction

import sympy


def sym(rows, ncols):
    if not rows:
        return sympy.zeros(0, ncols)
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def rank(rows, ncols) -> int:
    return sym(rows, ncols).rank()


def nullity(rows, ncols) -> int:
    return ncols - rank(rows, ncols)


def intersection(rows_a, rows_b, ncols):
    """The canonical RREF basis of the intersection of two row spaces, as
    Fraction rows, by sympy: each nullspace vector (x, y) of [A^T | -B^T]
    gives the common vector A^T x."""
    if not rows_a or not rows_b:
        return ()
    at, bt = sym(rows_a, ncols).T, sym(rows_b, ncols).T
    common = [at * z[: len(rows_a), :] for z in sympy.Matrix.hstack(at, -bt).nullspace()]
    if not common:
        return ()
    reduced, pivots = sympy.Matrix.hstack(*common).T.rref()
    return tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(len(pivots))
    )


def row_space_equal(rows_a, rows_b, ncols) -> bool:
    a, b = sym(rows_a, ncols), sym(rows_b, ncols)
    ra, rb = a.rank(), b.rank()
    if ra != rb:
        return False
    stacked = sympy.Matrix.vstack(a, b) if a.rows and b.rows else (a if a.rows else b)
    return stacked.rank() == ra


def in_row_space(rows, vec, ncols) -> bool:
    target = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in vec]])
    base = sym(rows, ncols)
    if base.rows == 0:
        return all(x == 0 for x in vec)
    return sympy.Matrix.vstack(base, target).rank() == base.rank()


# The dense exact kernels over ``Fraction``s, as they stood before
# zero-skipping and integer elimination: the reference the ``syscat.vect``
# kernels must match entry for entry.

def dense_rref(rows, ncols: int):
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def dense_mat_mul(a_rows, b_rows, inner: int):
    # inner >= 1; callers special-case degenerate shapes.
    bt = list(zip(*b_rows))
    return tuple(
        tuple(sum((row[k] * col[k] for k in range(inner)), Fraction(0)) for col in bt)
        for row in a_rows
    )


def dense_kernel_basis(rows, ncols: int):
    """Canonical basis of the right kernel (itself in row-echelon form)."""
    rr, pivots = dense_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_set):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rr[i][fc]
        basis.append(tuple(v))
    canon, _ = dense_rref(basis, ncols)
    return canon


def dense_solve_matrix(a_rows, ncols: int, b_rows, bcols: int):
    """One exact solution X of A @ X = B (free coordinates zero), or None."""
    aug = [tuple(ar) + tuple(br) for ar, br in zip(a_rows, b_rows)]
    rr, pivots = dense_rref(aug, ncols + bcols)
    if any(p >= ncols for p in pivots):
        return None
    x = [[Fraction(0)] * bcols for _ in range(ncols)]
    for i, p in enumerate(pivots):
        for j in range(bcols):
            x[p][j] = rr[i][ncols + j]
    return tuple(tuple(row) for row in x)


# The equation rows of a compiled circuit as dense ``Fraction`` rows, as
# ``circuits.compile_circuit`` built them before it emitted canonical rows.

def dense_equation_rows(circuit, universum):
    from syscat.circuits import Resistor, current_var, voltage_var

    idx = {v: i for i, v in enumerate(universum.vars)}
    names, rows = [], []

    def blank():
        return [Fraction(0)] * universum.dim

    for e in circuit.elements:
        row = blank()
        row[idx[voltage_var(e.n1)]] = Fraction(1)
        row[idx[voltage_var(e.n2)]] = Fraction(-1)
        if isinstance(e, Resistor):
            row[idx[current_var(e.ident)]] = -e.resistance
        names.append(f"law:{e.ident}")
        rows.append(tuple(row))
    internal = [n for n in circuit.nodes if n not in set(circuit.terminals)]
    for n in internal:
        row = blank()
        touched = False
        for e in circuit.elements:
            if e.n1 == n:
                row[idx[current_var(e.ident)]] += Fraction(1)
                touched = True
            if e.n2 == n:
                row[idx[current_var(e.ident)]] -= Fraction(1)
                touched = True
        if touched:
            names.append(f"kcl:{n}")
            rows.append(tuple(row))
    return tuple(names), tuple(rows)


# How ``syscat.circuits`` closed a glued circuit's dangling terminals before
# compiled circuits carried their node graph: it rebuilt node identity from both
# parsed netlists with a union-find. The reference the graph-based closing must
# match name for name, row for row and label for label.

from syscat.circuits import Circuit, current_var  # noqa: E402
from syscat.vect import VectObj  # noqa: E402


def _var_kind(name: str) -> str:
    if name.startswith("v_"):
        return "voltage"
    if name.startswith("i_"):
        return "current"
    return "other"


def _close_rows(c1: Circuit, c2: Circuit, pairs, universum: VectObj):
    """Zero-external-current rows at the glued circuit's dangling terminals."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    sides = (("L", c1), ("R", c2))
    for tag, c in sides:
        for n in c.nodes:
            parent.setdefault((tag, n), (tag, n))
    for l, r, _ in pairs:
        if _var_kind(l) == "voltage":
            union(("L", l[2:]), ("R", r[2:]))

    # current variable of each element, after merging
    merged_of_left = {l: m for l, _, m in pairs}
    merged_of_right = {r: m for _, r, m in pairs}
    def cur_var(tag, ident):
        name = current_var(ident)
        if tag == "L":
            return merged_of_left.get(name, name)
        return merged_of_right.get(name, name)

    # each merged node's element ends, with their current variables; the
    # node's degree is their count
    incident: dict[tuple[str, str], list[tuple[str, int]]] = {}
    terminal: dict[tuple[str, str], bool] = {}
    for tag, c in sides:
        terms = set(c.terminals)
        for n in c.nodes:
            root = find((tag, n))
            terminal[root] = terminal.get(root, False) or n in terms
            incident.setdefault(root, [])
        for e in c.elements:
            for node, sign in ((e.n1, 1), (e.n2, -1)):
                incident[find((tag, node))].append((cur_var(tag, e.ident), sign))

    idx = {v: i for i, v in enumerate(universum.vars)}
    names, rows, closed = [], [], []
    for root in sorted(set(find(k) for k in parent)):
        if not terminal[root] or len(incident[root]) > 1:
            continue
        # at most one incident current, so the row is canonical as it stands
        rows.append((1, {idx[var]: sign for var, sign in incident[root]}))
        label = f"{root[0]}.{root[1]}"
        names.append(f"ext:{label}")
        closed.append(label)
    return tuple(names), tuple(rows), tuple(closed)


# How ``syscat.circuits.emergence_report`` read emergence before it eliminated
# each part's hidden variables from its equations: each part's phenome
# projected from its full kernel, the whole's from the glued circuit's system.
# The reference the elimination route must match, report for report and
# error for error.

def full_phenome(system, obs):
    """The behavior of system projected onto the observed variables."""
    from syscat.errors import MismatchError
    from syscat.systems import behavior_image, project_latent
    from syscat.vect import projection_onto

    for n in obs:
        if n not in system.universum.vars:
            raise MismatchError(f"unknown observable variable {n!r}")
    return behavior_image(project_latent(system, projection_onto(system.universum, obs))[1])


def full_emergence_report(c1: Circuit, c2: Circuit, spec, names):
    from syscat.circuits import EmergenceReport, _glue_compiled, compile_circuit
    from syscat.errors import MismatchError

    obs = tuple(names)
    k1, k2 = compile_circuit(c1), compile_circuit(c2)
    parts = full_phenome(k1.system, obs).intersect(full_phenome(k2.system, obs))
    glued = _glue_compiled(k1, k2, spec)
    if not glued.preservation.equal:
        raise MismatchError("stacked equations disagree with the pullback route")
    whole = full_phenome(glued.system, obs)
    return EmergenceReport(obs, parts.dim, whole.dim, whole != parts, spec.close_dangling)


# The law generators' instances as ``syscat.laws`` built them before it drew
# sparse int rows: dense ``Fraction`` matrices through ``dense_kernels``'
# dense constructors, and the kernel multiples added entry by entry.
# Each makes the same ``rng`` calls in the same order as its counterpart.

import dense_kernels  # noqa: E402
from syscat import carriers, vect  # noqa: E402
from syscat.equations import EquationMorphism, EquationRep  # noqa: E402
from syscat.finset import FinMap, FinObj  # noqa: E402
from syscat.vect import LinMap, Subspace  # noqa: E402


def _fin_obj(rng, prefix: str, lo: int, hi: int) -> FinObj:
    return FinObj(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _fin_map(rng, dom: FinObj, cod: FinObj) -> FinMap:
    return FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def _fin_epi(rng, dom: FinObj, cod: FinObj) -> FinMap:
    slots = list(dom.elements)
    rng.shuffle(slots)
    table = dict(zip(slots, cod.elements))
    for label in slots[len(cod):]:
        table[label] = rng.choice(cod.elements)
    return FinMap(dom, cod, table)


def dense_finset_equation_cospan(rng):
    uc = _fin_obj(rng, "uc", 1, 3)
    ec = _fin_obj(rng, "ec", 1, 2)
    shared = EquationRep(_fin_map(rng, uc, ec), _fin_map(rng, uc, ec))

    def leg(side: str) -> EquationMorphism:
        u = _fin_obj(rng, f"u{side}", 1, 4)
        e = _fin_obj(rng, f"e{side}", len(ec), 4)
        psi_u = _fin_map(rng, u, uc)
        psi_e = _fin_epi(rng, e, ec)
        preimages = {t: [x for x in e if psi_e(x) == t] for t in ec}
        tables = [{x: rng.choice(preimages[h(psi_u(x))]) for x in u} for h in (shared.f1, shared.f2)]
        rep = EquationRep(FinMap(u, e, tables[0]), FinMap(u, e, tables[1]))
        return EquationMorphism(rep, shared, psi_u, psi_e)

    return leg("a"), leg("b")


def _vect_obj(rng, prefix: str, lo: int, hi: int) -> VectObj:
    return VectObj(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _dense_matrix(rng, rows: int, cols: int):
    return tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols)) for _ in range(rows))


def dense_linmap(rng, dom: VectObj, cod: VectObj) -> LinMap:
    return dense_kernels.dense_map(dom, cod, _dense_matrix(rng, cod.dim, dom.dim))


def dense_subspace(rng, ambient: VectObj) -> Subspace:
    rows = _dense_matrix(rng, rng.randint(0, ambient.dim), ambient.dim)
    return dense_kernels.dense_subspace(ambient, rows)


def dense_vect_equation_cospan(rng):
    uc = _vect_obj(rng, "uc", 1, 2)
    ec = _vect_obj(rng, "ec", 1, 2)
    shared = EquationRep(dense_linmap(rng, uc, ec), dense_linmap(rng, uc, ec))

    def leg(side: str) -> EquationMorphism:
        u = _vect_obj(rng, f"u{side}", 1, 4)
        e = _vect_obj(rng, f"e{side}", ec.dim, 4)
        psi_u = dense_linmap(rng, u, uc)
        while True:  # resample until psi_e has full row rank
            psi_e = dense_linmap(rng, e, ec)
            if rank(dense_kernels.matrix_of(psi_e), e.dim) == ec.dim:
                break
        # psi_e's right inverse with free coordinates zero, and its kernel's
        # canonical basis, from the dense references rather than from vect
        unit = tuple(tuple(Fraction(int(i == j)) for j in range(ec.dim)) for i in range(ec.dim))
        psi_e_matrix = dense_kernels.matrix_of(psi_e)
        right_inv = dense_kernels.dense_map(ec, e, dense_solve_matrix(psi_e_matrix, e.dim, unit, ec.dim))
        kernel = dense_kernel_basis(psi_e_matrix, e.dim)
        maps = []
        for h in (shared.f1, shared.f2):
            target = carriers.compose(h, psi_u)
            rows = [list(r) for r in dense_kernels.matrix_of(vect.compose(right_inv, target))]
            for kvec in kernel:
                coeffs = [Fraction(rng.randint(-1, 1)) for _ in range(u.dim)]
                for i in range(e.dim):
                    for j in range(u.dim):
                        rows[i][j] += kvec[i] * coeffs[j]
            maps.append(dense_kernels.dense_map(u, e, tuple(tuple(r) for r in rows)))
        return EquationMorphism(EquationRep(maps[0], maps[1]), shared, psi_u, psi_e)

    return leg("a"), leg("b")
