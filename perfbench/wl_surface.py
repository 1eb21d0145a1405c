"""Workload `surface`: path and surface transport through the library API.

One round runs `surface_holonomy` on su2_charts over the unit square and over
a smooth reparametrization of it in s and in t, on abelian_square and on
su2_nonflat, then `path_holonomy` along circle-arc at 1000 steps and along its
reverse. The seed picks the two reparametrizations, phi(x) = x + a x (1 - x)
with 0.2 <= |a| <= 0.6, and the constant connection of the line-path check.
No finite engine or census runs here.
"""

import cmath
import math
import random
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from twogauge import (FormField, LocalConnection, Path, Reparam, load_scenario,
                      path_holonomy, shipped_bigon, shipped_path,
                      surface_holonomy)

from harness import OK, Op, require

GRID = 32            # su2_charts and su2_nonflat; the su2 surfaces dominate a round
ABELIAN_GRID = 64    # abelian_square's own grid: at 32 its error is still pre-asymptotic
PATH_STEPS = 1000
EXACT_ABELIAN = cmath.exp(-1.5j)   # exp(-i * integral of (x1 + 2 x2) over the unit square)

UNIT_SQUARE = "su2_charts/unit-square"
S_REPARAM = "su2_charts/unit-square-s"
T_REPARAM = "su2_charts/unit-square-t"
ABELIAN = "abelian_square/unit-square"
NONFLAT = "su2_nonflat/unit-square"
ARC = "su2_charts/circle-arc"
ARC_BACK = "su2_charts/circle-arc-reversed"


def _coefficient(rng):
    return rng.choice((-1.0, 1.0)) * round(rng.uniform(0.2, 0.6), 6)


def prepare(seed):
    rng = random.Random(seed)
    inp = SimpleNamespace()
    inp.seed = seed
    su2 = load_scenario("su2_charts.scn")
    abelian = load_scenario("abelian_square.scn")
    nonflat = load_scenario("su2_nonflat.scn")
    inp.su2 = su2
    inp.cm = su2.module
    inp.conn = LocalConnection(su2.module, su2.forms["A"], su2.forms["B"])
    inp.abelian = LocalConnection(abelian.module, abelian.forms["A"], abelian.forms["B"])
    inp.nonflat = LocalConnection(nonflat.module, nonflat.forms["A"], nonflat.forms["B"])
    inp.square = shipped_bigon("unit-square")
    inp.a_s, inp.a_t = _coefficient(rng), _coefficient(rng)
    inp.square_s = inp.square.reparametrize_s(
        Reparam.from_expr(f"x1 + {inp.a_s!r} * x1 * (1 - x1)"))
    inp.square_t = inp.square.reparametrize_t(
        Reparam.from_expr(f"x1 + {inp.a_t!r} * x1 * (1 - x1)"))
    inp.arc = shipped_path("circle-arc")
    inp.arc_back = inp.arc.reverse()
    inp.line_coords = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    inp.line_end = (rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
    return inp


def _same_surface(out, first):
    if first is None:
        return
    require(np.array_equal(out.h, first.h) and np.array_equal(out.g, first.g)
            and np.array_equal(out.target_holonomy, first.target_holonomy)
            and out.fake_residual == first.fake_residual,
            "surface result differs from the first round's")


def _surface_check(flat):
    def check(out, first):
        require(not isinstance(out, Exception), f"raised {out!r}")
        require(out.flat == flat, f"flat flag is {out.flat}, expected {flat}")
        if not flat:
            require(out.fake_residual >= 0.1,
                    f"non-flat connection has fake residual {out.fake_residual:.3g} < 0.1")
        _same_surface(out, first)
        return OK
    return check


def _path_check(out, first):
    require(not isinstance(out, Exception), f"raised {out!r}")
    require(np.linalg.norm(out.conj().T @ out - np.eye(2)) <= 1e-9,
            "path holonomy is not unitary")
    if first is not None:
        require(np.array_equal(out, first), "path holonomy differs from the first round's")
    return OK


def operations(inp):
    A = inp.conn.A
    return [
        Op(UNIT_SQUARE, lambda: surface_holonomy(inp.conn, inp.square, grid=GRID),
           _surface_check(True)),
        Op(S_REPARAM, lambda: surface_holonomy(inp.conn, inp.square_s, grid=GRID),
           _surface_check(True)),
        Op(T_REPARAM, lambda: surface_holonomy(inp.conn, inp.square_t, grid=GRID),
           _surface_check(True)),
        Op(ABELIAN, lambda: surface_holonomy(inp.abelian, inp.square, grid=ABELIAN_GRID),
           _surface_check(True)),
        Op(NONFLAT, lambda: surface_holonomy(inp.nonflat, inp.square, grid=GRID),
           _surface_check(False)),
        Op(ARC, lambda: path_holonomy(inp.cm, A, inp.arc, steps=PATH_STEPS), _path_check),
        Op(ARC_BACK, lambda: path_holonomy(inp.cm, A, inp.arc_back, steps=PATH_STEPS),
           _path_check),
    ]


# ------------------------------------------------------------------ oracles

def _expression(text):
    """A shipped scenario's expression as plain Python, apart from twogauge.expr."""
    code = compile(text.replace("^", "**"), "<component>", "eval")
    names = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh}
    return lambda x1, x2: eval(code, dict(names), {"x1": x1, "x2": x2})


def one_form_matrices(components, basis):
    """A(p) as one matrix per coordinate direction, from "a,m": "expr" components."""
    terms = []
    for key, text in components.items():
        a, mu = key.split(",")
        terms.append((int(mu) - 1, basis[int(a) - 1], _expression(text)))

    def at(p):
        mats = [np.zeros_like(basis[0], dtype=complex) for _ in range(2)]
        for mu, e, fn in terms:
            mats[mu] = mats[mu] + fn(p[0], p[1]) * e
        return mats
    return at


def polyline_holonomy(A_at, corners):
    """Transport W' = -A(c') W along straight segments, by solve_ivp (DOP853).

    Holonomy does not depend on the parametrization, so each straight piece
    is run at constant speed, with no sitting instants.
    """
    from scipy.integrate import solve_ivp

    n = A_at(corners[0])[0].shape[0]
    W = np.eye(n, dtype=complex)
    for p0, p1 in zip(corners[:-1], corners[1:]):
        p0 = np.asarray(p0, dtype=float)
        v = np.asarray(p1, dtype=float) - p0

        def rhs(s, y, p0=p0, v=v):
            Wc = (y[:n * n] + 1j * y[n * n:]).reshape(n, n)
            mats = A_at(p0 + s * v)
            M = -(mats[0] * v[0] + mats[1] * v[1])
            d = (M @ Wc).ravel()
            return np.concatenate([d.real, d.imag])

        y0 = np.concatenate([W.ravel().real, W.ravel().imag])
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        y = sol.y[:, -1]
        W = (y[:n * n] + 1j * y[n * n:]).reshape(n, n)
    return W


def check_converges(name, err_n, err_half, limit, figures=None):
    """err_n is small and smaller than at half the grid."""
    if figures is not None:
        figures[name] = (err_n, err_half)
    problems = []
    if not err_n <= limit:
        problems.append(f"{name}: {err_n:.3g} exceeds {limit:.1g}")
    if not (err_n < err_half or err_n <= 1e-12):
        problems.append(f"{name}: {err_n:.3g} at grid N does not shrink from "
                        f"{err_half:.3g} at N/2")
    return problems


def check_abelian(h_n, h_half, figures=None):
    """cell_h against exp(-1.5i), within the Richardson bound of the grid.

    For a fourth-order scheme the error at N is about |h_N - h_N/2| / 15;
    the bound allows three times that.
    """
    err = abs(complex(np.asarray(h_n).ravel()[0]) - EXACT_ABELIAN)
    bound = abs(complex(np.asarray(h_n).ravel()[0])
                - complex(np.asarray(h_half).ravel()[0])) / 5 + 1e-12
    if figures is not None:
        figures["abelian_square error, bound"] = (err, bound)
    if err <= bound:
        return []
    return [f"abelian_square: |cell_h - exp(-1.5i)| = {err:.3g} exceeds the "
            f"discretisation bound {bound:.3g}"]


TARGET_LIMIT = 2e-4   # su2_charts target holonomy against solve_ivp at grid 32


def verify(inp, firsts):
    problems = []
    fig = inp.figures = {}
    half = GRID // 2
    square_half = surface_holonomy(inp.conn, inp.square, grid=half)
    s_half = surface_holonomy(inp.conn, inp.square_s, grid=half)
    t_half = surface_holonomy(inp.conn, inp.square_t, grid=half)
    abelian_half = surface_holonomy(inp.abelian, inp.square, grid=ABELIAN_GRID // 2)
    square, s_rep, t_rep = firsts[UNIT_SQUARE], firsts[S_REPARAM], firsts[T_REPARAM]

    problems += check_abelian(firsts[ABELIAN].h, abelian_half.h, fig)

    basis = inp.cm.G.algebra.basis
    A_at = one_form_matrices(inp.su2.doc["forms"]["A"]["components"], basis)
    target = polyline_holonomy(A_at, [(0, 0), (0, 1), (1, 1), (1, 0)])
    for label, res, res_half in ((UNIT_SQUARE, square, square_half),
                                 (S_REPARAM, s_rep, s_half), (T_REPARAM, t_rep, t_half)):
        problems += check_converges(
            f"{label} target holonomy vs solve_ivp",
            float(np.linalg.norm(res.target_holonomy - target)),
            float(np.linalg.norm(res_half.target_holonomy - target)), TARGET_LIMIT, fig)

    problems += check_converges("su2_charts target-law defect", square.target_defect,
                                square_half.target_defect, 1e-2, fig)
    for label, res, res_half in ((S_REPARAM, s_rep, s_half), (T_REPARAM, t_rep, t_half)):
        problems += check_converges(
            f"{label} cell_h minus the unit square's",
            float(np.linalg.norm(res.h - square.h)),
            float(np.linalg.norm(res_half.h - square_half.h)), 1e-2, fig)

    # a constant connection along a straight line transports to expm(-A(p1 - p0))
    c = inp.line_coords
    A0 = [inp.cm.G.algebra.from_coords(c[:3]), inp.cm.G.algebra.from_coords(c[3:])]
    const = FormField.constant(inp.cm.G.algebra, 1, 2, {(0,): A0[0], (1,): A0[1]})
    end = inp.line_end
    W_line = path_holonomy(inp.cm, const, Path.line((0.0, 0.0), end), steps=PATH_STEPS)
    expected = expm(-(A0[0] * end[0] + A0[1] * end[1]))
    err = float(np.linalg.norm(W_line - expected))
    fig["constant-A line path vs expm"] = err
    if err > 1e-10:
        problems.append(f"constant-A line path: {err:.3g} from expm")

    back = float(np.linalg.norm(firsts[ARC_BACK] @ firsts[ARC] - np.eye(2)))
    fig["circle-arc reverse . forward vs identity"] = back
    if back > 1e-9:
        problems.append(f"circle-arc: reverse . forward is {back:.3g} from the identity")
    return problems


def details(inp, medians, firsts):
    return {"surface_s": medians[UNIT_SQUARE], "path_s": medians[ARC],
            "surface_defect": firsts[UNIT_SQUARE].target_defect,
            "grid": GRID, "abelian_grid": ABELIAN_GRID, "path_steps": PATH_STEPS,
            "reparam_s_a": inp.a_s, "reparam_t_a": inp.a_t,
            "oracles": getattr(inp, "figures", {})}


def layer_counts(inp, firsts, medians):
    return {}
