"""Central extensions by a one-dimensional even center.

The extension of (g, [.,.], alpha) by a scalar 2-cochain omega lives on
g + Kc with

    [x,y]_c = [x,y] + omega(x,y) c,     [x,c]_c = 0,
    abar(x) = alpha(x) + lam(x) c,      abar(c) = lam(c) c,

where lam is a linear functional on the extended space.  Hom-Jacobi for
the extension is equivalent to omega being a scalar 2-cocycle; lam never
enters any bracket, it only shifts the twist.
"""

from .binary import HomLieSuper, SuperBracket2, verify_hom_jacobi, verify_multiplicative
from .cohomology import (Cochain, binary_pair_eval, induce_cocycle,
                         is_binary_cocycle)
from .graded import GradedMap, GradedSpace, skew_basis
from .linalg import (InputError, Matrix, PreconditionError, ZERO, ONE,
                     is_zero_vec, record, solve, vec, vec_add, vec_scale,
                     zero_vec)
from .report import Report
from .reps import TraceFunctional
from .ternary import induce_ternary


@record(frozen=True)
class CentralExtensionData:
    base: HomLieSuper
    omega: Cochain
    lam: tuple = None  # functional on g + Kc; None means dual of c

    def __post_init__(self):
        if self.omega.complex != "binary-scalar" or self.omega.degree != 2:
            raise InputError("extension cochain must be a binary scalar 2-cochain")
        if self.omega.space != self.base.space:
            raise InputError("extension cochain belongs to another algebra")
        if self.omega.parity != 0:
            raise InputError("extension cochain must be even")
        n = self.base.dim + 1
        if self.lam is None:
            object.__setattr__(self, "lam",
                               tuple(ONE if i == n - 1 else ZERO for i in range(n)))
        else:
            lam = vec(self.lam)
            if len(lam) != n:
                raise InputError("lambda must be a functional on the extended space")
            for i, c in enumerate(lam[:-1]):
                if c != 0 and self.base.space.parities[i] == 1:
                    raise InputError("lambda must vanish on odd basis elements")
            object.__setattr__(self, "lam", lam)


def extended_space(g: HomLieSuper) -> GradedSpace:
    if "c" in g.space.names:
        raise InputError("base algebra already uses the basis name 'c'")
    return GradedSpace(g.space.names + ("c",), g.space.parities + (0,))


def build_central_extension(data: CentralExtensionData) -> HomLieSuper:
    g = data.base
    dim = g.dim
    sp = extended_space(g)
    sb2 = skew_basis(2, g.space)
    coeffs = {}
    for pair in sb2.tuples:
        v = g.bracket.value(pair[0], pair[1])
        wc = binary_pair_eval(data.omega, pair[0], pair[1])
        padded = v + (wc,)
        if not is_zero_vec(padded):
            coeffs[pair] = padded
    bracket = SuperBracket2.from_canonical(sp, coeffs)
    # abar: the rows of alpha, then lam as the row of c
    alpha = Matrix(dim + 1, dim + 1,
                   g.alpha.matrix.entries + Matrix.build([data.lam]).entries)
    return HomLieSuper(sp, bracket, GradedMap(sp, sp, alpha))


def verify_extension(data: CentralExtensionData) -> Report:
    """The extension satisfies Hom-Jacobi exactly when omega is a 2-cocycle;
    both sides are computed independently and must agree."""
    rep = Report("verify_extension")
    ext = build_central_extension(data)
    jac = verify_hom_jacobi(ext)
    cocycle = is_binary_cocycle(data.base, data.omega)
    rep.metrics["hom_jacobi"] = jac.ok
    rep.metrics["cocycle"] = cocycle
    if jac.ok != cocycle:
        rep.fail("cocycle-equivalence",
                 detail=f"Hom-Jacobi {jac.ok} but cocycle test {cocycle}")
    base_mult = verify_multiplicative(data.base).ok
    ext_mult = verify_multiplicative(ext).ok
    rep.metrics["extension_multiplicative"] = ext_mult
    if base_mult and not ext_mult:
        rep.note("multiplicativity",
                 detail="lambda makes the extended twist non-multiplicative")
    return rep


def extension_isomorphism(omega1: Cochain, omega2: Cochain,
                          base: HomLieSuper):
    """An isomorphism f(x) = x + a(x) c between the two extensions, or None.

    The connecting 1-cochain must satisfy a([x,y]) = (omega2 - omega1)(x,y)
    (which pins a on [g,g], i.e. the difference is a coboundary) and a o
    alpha = a so that f also intertwines the extended twists.
    """
    for om, label in ((omega1, "omega1"), (omega2, "omega2")):
        if om.complex != "binary-scalar" or om.degree != 2:
            raise PreconditionError(f"{label} must be a binary scalar 2-cochain")
        if not is_binary_cocycle(base, om):
            raise PreconditionError(f"{label} is not a 2-cocycle")
    g = base
    dim = g.dim
    # a on every bracket [e_i, e_j] of a canonical pair, then a o alpha - a
    brackets = Matrix.from_rows([dict(enumerate(g.bracket.value(*pair)))
                                 for pair in skew_basis(2, g.space).tuples], dim)
    fixed = g.alpha.matrix.transpose().add(Matrix.identity(dim).scale(-1))
    a = solve(Matrix(brackets.rows + dim, dim, brackets.entries + fixed.entries),
              vec_add(omega2.coords, vec_scale(-1, omega1.coords)) + zero_vec(dim))
    if a is None:
        return None
    sp = extended_space(g)
    # f(e_j) = e_j + a_j c and f(c) = c
    return GradedMap(sp, sp, Matrix(dim + 1, dim + 1, Matrix.identity(dim).entries
                                    + Matrix.build([a + (ONE,)]).entries))


def induce_extension(g: HomLieSuper, tau: TraceFunctional,
                     data: CentralExtensionData):
    """Ternary algebra induced from the extension, plus the ternary cochain
    omega_rho that measures it against the base induced bracket.

    The construction is validated in place: on base triples the extended
    bracket is the base one plus omega_rho times c, and any triple touching
    c vanishes.
    """
    if data.base != g:
        raise PreconditionError("extension data built over a different base")
    ver = verify_extension(data)
    if not ver.ok or not ver.metrics["cocycle"]:
        raise PreconditionError("extension does not satisfy Hom-Jacobi")
    t_base = induce_ternary(g, tau, g.alpha, g.alpha)
    # induce_cocycle also refuses a tau that alpha moves
    om_rho = induce_cocycle(g, tau, data.omega, t_base)
    ext = build_central_extension(data)
    dim = g.dim
    tau_bar = TraceFunctional(ext, tau.values + (ZERO,))
    t_ext = induce_ternary(ext, tau_bar, ext.alpha, ext.alpha)
    for key in skew_basis(3, g.space).tuples:
        i, j, k = key
        got = t_ext.bracket.value(i, j, k)
        want = t_base.bracket.value(i, j, k) + (om_rho.values[((i, j), k)],)
        if got != want:
            raise PreconditionError(
                f"induced extension fails to decompose at {key}")
    for key in skew_basis(3, ext.space).tuples:
        if dim not in key:
            continue
        if not is_zero_vec(t_ext.bracket.value(*key)):
            raise PreconditionError(
                f"central element enters a triple bracket at {key}")
    return t_ext, om_rho
