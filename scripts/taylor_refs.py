"""Regenerate the frozen mpmath.taylor constants of tests/test_kronecker.py.

TestSCoeffs::test_taylor_vs_mpmath compares s_coeffs with the Taylor
coefficients of the degree-D kernel variant D^2 J(z, w) - D J(Dz, w/D), taken
by mpmath.taylor(method="quad") on the dps-30 oracle tests/oracles.J_ref.
That oracle takes about 18 s, so the test reads the values from the frozen
block S_TAYLOR_REF. This script recomputes the block from the live oracle,
prints it, and prints a unified diff against the block in the test file.
Exit code 0 means the test file is up to date, 1 that it differs.

Run: python scripts/taylor_refs.py
"""

import difflib
import os
import re
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(HERE, "..", "tests")
TEST_FILE = os.path.join(TESTS, "test_kronecker.py")
BLOCK = re.compile(r"^# s_k of D\^2 J.*?^S_TAYLOR_REF = \(\n.*?^\)\n", re.S | re.M)

# the test's point: D, Z_A and TAU_A of tests/test_kronecker.py
D, Z, TAU, ORDER, RADIUS = 2, 0.23 + 0.11j, 0.5 + 0.8j, 5, 0.2


def block() -> str:
    sys.path.insert(0, TESTS)
    import oracles  # sets mpmath's dps to 30

    ref = mpmath.taylor(
        lambda w: D * D * oracles.J_ref(Z, w, TAU) - D * oracles.J_ref(D * Z, w / D, TAU),
        0.0, ORDER, method="quad", radius=RADIUS,
    )
    rows = "".join(f"    complex({complex(c).real!r}, {complex(c).imag!r}),\n" for c in ref)
    return (f"# s_k of D^2 J(z, w) - D J(Dz, w/D) at D = {D}, z = {Z}, tau = {TAU},\n"
            f"# k = 0..{ORDER}, by mpmath.taylor(method=\"quad\", radius={RADIUS}) on "
            f"oracles.J_ref at\n# dps = {mpmath.mp.dps}; regenerate with scripts/taylor_refs.py\n"
            f"S_TAYLOR_REF = (\n{rows})\n")


def main() -> int:
    fresh = block()
    print(fresh, end="")
    with open(TEST_FILE, encoding="utf-8") as fh:
        match = BLOCK.search(fh.read())
    frozen = match.group(0) if match else ""
    diff = list(difflib.unified_diff(frozen.splitlines(True), fresh.splitlines(True),
                                     "tests/test_kronecker.py", "live oracle"))
    if not diff:
        print("tests/test_kronecker.py is up to date")
        return 0
    sys.stdout.writelines(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main())
