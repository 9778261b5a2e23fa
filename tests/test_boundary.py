"""Each input is checked once, at the public boundary; the kernels below it check nothing.

The public functions of special and maxwell check x, and private kernels of
a float hold the formulas: `_gumbel_cdf`, `_gumbel_pdf`, `_survival` and
`_survival_pdf`. The package calls those kernels, not the checking
functions, so an exact law checks each of its reals once: a plain float
in-line, any other real through errors._real. Two calls are kept on purpose,
since the benchmark's tracer follows them: cdf_approx calls
special.gumbel_cdf, which tests its float x a second time, in-line, and
maxwell.survival calls special.erfc.
"""
import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import maxext
from maxext import errors, exact, expansions, maxwell, norming, special
from maxext.maxwell import MaxwellParams
from maxext.norming import Scheme

SRC = pathlib.Path(maxext.__file__).parent

# x <= 0, subnormals, x where exp(-x) overflows (x < -709.78) or underflows
# (x > 745.13), the ends of the float range and a few ordinary points
X_EDGES = (
    0.0, -0.0, -1.0, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
    0.5, 0.7, 3.0, 37.0, 40.0, -709.0, -709.79, -710.0, -1000.0,
    745.0, 745.2, 746.0, 1000.0, 1e300, 1e308, -1e308, math.inf, -math.inf,
)
SIGMAS = (1e-150, 0.7, 1.0, 1e150)


@pytest.mark.parametrize("kernel, public", [
    (special._gumbel_cdf, special.gumbel_cdf),
    (lambda x: special._gumbel_pdf(x)[0], special.gumbel_pdf),  # the density of (density, e^{-x})
], ids=["_gumbel_cdf-gumbel_cdf", "_gumbel_pdf-gumbel_pdf"])
def test_gumbel_kernels_match_the_public_functions_bit_for_bit(kernel, public):
    for x in X_EDGES:
        assert kernel(x).hex() == public(x).hex(), x


def _pdf(x, s):
    # the Maxwell density as written out before pdf became the second value
    # of _survival_pdf: pdf keeps these bits
    if x <= 0.0:
        return 0.0
    z = x / s
    e = math.exp(-0.5 * z * z)
    return math.sqrt(2.0 / math.pi) * z * z / s * e if e else 0.0


@pytest.mark.parametrize("kernel, public", [
    (maxwell._survival, maxwell.survival),
    (_pdf, maxwell.pdf),
])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_maxwell_kernels_match_the_public_functions_bit_for_bit(kernel, public, sigma):
    p = MaxwellParams(sigma)
    for x in X_EDGES + tuple(sigma * v for v in (0.5, 1.0, 3.0, 40.0)):
        assert kernel(x, sigma).hex() == public(x, p).hex(), x


@pytest.mark.parametrize("sigma", SIGMAS)
def test_the_paired_maxwell_kernel_matches_survival_and_pdf_bit_for_bit(sigma):
    p = MaxwellParams(sigma)
    for x in X_EDGES + tuple(sigma * v for v in (0.5, 1.0, 3.0, 40.0)):
        sf, f = maxwell._survival_pdf(x, sigma)
        assert (sf.hex(), f.hex()) == (maxwell.survival(x, p).hex(), maxwell.pdf(x, p).hex()), x


def test_approximations_form_the_gumbel_law_with_its_bits():
    base = norming.solve_bn(1000, 1.0)
    for x in X_EDGES:
        square = (2.0, x, base, Scheme.SQUARE_OPTIMAL)
        assert expansions.cdf_approx(1, 1.0, x, base).hex() == special.gumbel_cdf(x).hex()
        assert expansions._cdf_approx_tabulated(1, *square).hex() == special.gumbel_cdf(x).hex()
        assert expansions.pdf_approx(1, 1.0, x, base).hex() == special.gumbel_pdf(x).hex()
        assert expansions._pdf_approx_tabulated(1, *square).hex() == special.gumbel_pdf(x).hex()
        lam = special.gumbel_cdf(x)
        want = lam and lam * math.exp(-x) * math.log(2.0 * math.log(1000)) ** 2 / (
            16.0 * math.log(1000))
        assert expansions._hall_error_leading(1000, x).hex() == want.hex(), x


# ------------------------------------------------- no checking function inside

CHECKED = {"special": {"erfc", "gumbel_cdf", "gumbel_pdf"},
           "maxwell": {"survival", "pdf"}}
# (module, top-level function, name): cli hands gumbel_cdf to ks_distance as
# the reference; the other two are the calls the benchmark's tracer follows
ALLOWED = {("cli.py", "_cmd_simulate", "gumbel_cdf"), ("expansions.py", "cdf_approx", "gumbel_cdf"),
           ("maxwell.py", "survival", "erfc")}


def _checked_references(module_name, tree):
    """(line, top-level function, name) of every use of a checking special/maxwell
    function in one module; module-level uses have the function "<module>"."""
    bound = set(CHECKED.get(module_name.removesuffix(".py"), ()))  # its own public ones
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in CHECKED:
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name in CHECKED[node.module]}
    found = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                found.append((node.lineno, scope, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.attr in CHECKED.get(node.value.id, ())):
                found.append((node.lineno, scope, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_scan_flags_calls_and_spares_math():
    tree = ast.parse("import math\nfrom . import maxwell\nfrom .special import erfc as e\n"
                     "a = math.erfc(1.0)\nb = e(1.0)\n"
                     "def f(p):\n    return maxwell.survival(1.0, p)\n")
    assert _checked_references("exact.py", tree) == [(5, "<module>", "e"),
                                                     (7, "f", "maxwell.survival")]
    own = ast.parse("def pdf(x, p):\n    return 0.0\ndef cdf(x, p):\n    return pdf(x, p)\n")
    assert _checked_references("maxwell.py", own) == [(4, "cdf", "pdf")]


def test_no_module_calls_a_checking_special_or_maxwell_function():
    found = {path.name: _checked_references(path.name, ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 8  # the scan saw the package
    allowed = {(name, scope, ref) for name, refs in found.items() for _, scope, ref in refs
               if (name, scope, ref) in ALLOWED}
    assert allowed == ALLOWED  # each kept call is still there, once
    assert sum(len(refs) for refs in found.values()) == len(ALLOWED)


# ------------------------------------------------------- one check per input

@pytest.fixture
def real_names(monkeypatch):
    """The name of every errors._real call made through any module's binding."""
    names = []

    def counting(value, name, positive=False):
        names.append(name)
        return errors._real(value, name, positive)

    for module in (special, maxwell, norming, expansions, exact):
        monkeypatch.setattr(module, "_real", counting)
    return names


_BASE = norming.solve_bn(500, 2.0)
_P = MaxwellParams(2.0)
MEMBERS = [(1.0, Scheme.GENERAL_POWER), (3.5, Scheme.GENERAL_POWER),
           (2.0, Scheme.SQUARE_OPTIMAL), (2.0, Scheme.SQUARE_ALTERNATIVE)]


# the errors._real calls of an x that is not a plain float: one, as cdf_approx
# hands gumbel_cdf the float that errors._real returned
@pytest.mark.parametrize("approx, checks", [(expansions.cdf_approx, ["x"]),
                                             (expansions.pdf_approx, ["x"])])
@pytest.mark.parametrize("t, scheme", MEMBERS)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_an_approximation_checks_only_x(real_names, approx, checks, t, scheme, order):
    # a plain float is tested in-line and makes no call
    for x in (-800.0, -2.0, 0.7, 800.0):
        for value, want in ((x, []), (np.float32(x), checks), (Fraction(x), checks)):
            real_names.clear()
            approx(order, t, value, _BASE, scheme)
            assert real_names == want, value


@pytest.mark.parametrize("law", [exact.exact_powered_cdf, exact.exact_powered_pdf])
@pytest.mark.parametrize("t, scheme", MEMBERS)
def test_an_exact_law_checks_t_and_x_once(real_names, law, t, scheme):
    # a plain float t or x is tested in-line; any other reaches errors._real once
    pn = norming.powered_constants(_BASE, t, scheme)
    for x in (-2.0, 0.7, 5.0):
        for tv, xv, want in ((t, x, []),
                             (Fraction(t), x, ["power index t"]),
                             (t, np.float32(x), ["x"]),
                             (np.float32(t), Fraction(x), ["power index t", "x"])):
            real_names.clear()
            law(500, tv, xv, pn, _P)
            assert real_names == want, (tv, xv)


def test_the_unpowered_law_checks_y_once(real_names):
    exact.exact_unpowered_cdf(500, 7.0, _P)
    assert real_names == ["y"]


def test_hall_rate_check_takes_n_through_the_integer_rule_only(real_names):
    # n is an integer of the grid, checked by errors._integer; x is checked once,
    # at the boundary, and the exact laws and the order-1 approximation test the
    # float it became in-line
    ns = [10**3, 10**4, 10**6, 10**8, 10**10]
    for x in (0.7, Fraction(7, 10)):
        real_names.clear()
        exact.hall_rate_check(x, 1.0, ns)
        assert "n" not in real_names
        assert real_names.count("x") == 1, x
