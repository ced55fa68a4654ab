"""Acceptance suite: the ten shipped guarantees, one test each.

Each test runs the corresponding frozen check from
:mod:`bchyp.criteria` and emits exactly one human-readable pass/fail
line (bypassing capture so it always appears in the run log), then
asserts the verdict.
"""

from bchyp.criteria import run_criterion


def _run(cid, capsys):
    result = run_criterion(cid)
    with capsys.disabled():
        print(result.line)
    assert result.passed, result.line


def test_criterion_01_algebra_isomorphism(capsys):
    """100 seeded complex 3x3 pairs: phi_iso is a homomorphism into
    C_tau matrices, and its images keep the pairing compatibility."""
    _run(1, capsys)


def test_criterion_02_laplacian_convergence(capsys):
    """Chart Laplacian agrees with an independent stencil and the
    error contracts by 4x from n=64 to n=128 for each chart."""
    _run(2, capsys)


def test_criterion_03_stokes_identity(capsys):
    """Discrete Stokes defect of the rotated-gradient circulation
    stays under five grid-spacings squared."""
    _run(3, capsys)


def test_criterion_04_newton_solver(capsys):
    """Constant data reproduces the scalar root immediately; the
    perturbed datum converges to 1e-10 residual at n=128."""
    _run(4, capsys)


def test_criterion_05_flatness(capsys):
    """Curvature of the assembled connection vanishes to truncation
    order on solved data and to round-off on constant data."""
    _run(5, capsys)


def test_criterion_06_holonomy_invariants(capsys):
    """Period holonomies: unimodular plus-part, commuting periods,
    minus-part determined by the plus-part."""
    _run(6, capsys)


def test_criterion_07_variation_pairing(capsys):
    """Vertical/vertical pairing is positive and proportional to the
    weighted cubic-density integral; vertical/horizontal vanishes."""
    _run(7, capsys)


def test_criterion_08_affine_roundtrip(capsys):
    """Frame integration reproduces the affine-sphere structure
    equations to truncation order at n=128."""
    _run(8, capsys)


def test_criterion_09_second_variation(capsys):
    """The second-variation trace is strictly negative at every node
    for seeded nonvanishing variation fields."""
    _run(9, capsys)


def test_criterion_10_representation_scan(capsys):
    """The irreducibly embedded example passes the scan to length 5;
    the seeded reducible example fails with zero transversality."""
    _run(10, capsys)
