"""Turn call specs into calls on the package's public functions.

Functions are looked up on their module at call time, so the traced run
sees the wrappers that tracing.py binds into each module's namespace.
"""

from __future__ import annotations

import json


def modules():
    """Import the package; the caller has put its source tree on sys.path."""
    import epolylog
    from epolylog import cli, eisenstein, kronecker, logsheaf, numerics, polylog, weierstrass

    return {"epolylog": epolylog, "cli": cli, "eisenstein": eisenstein,
            "kronecker": kronecker, "logsheaf": logsheaf, "numerics": numerics,
            "polylog": polylog, "weierstrass": weierstrass}


def bind(spec, mods):
    """Return a zero-argument callable that makes the spec's call."""
    kind, a, _ = spec
    W, K, E, P, Nm, C, Lg = (mods[m] for m in ("weierstrass", "kronecker", "eisenstein",
                                               "polylog", "numerics", "cli", "logsheaf"))
    if kind == "verify":
        config = C.RunConfig(seed=a["seed"])
        return lambda: C.cmd_verify(a["suite"], config)
    if kind == "curvature":
        return lambda: Lg.curvature_residual(a["n"], a["tau"])
    if kind == "closedness":
        return lambda: P.closedness_residual(a["z"], a["tau"], a["D"], a["n"])
    if kind == "residue":
        # the katosiegel suite's residue check at the origin, on 32 nodes
        # where the suite takes 128: the nearest other pole is 2.5 radii
        # away, so the trapezoid error is about 0.4^32
        t, D = a["tau"], a["D"]
        cfg = Nm.CauchyConfig(radius=K.default_cauchy_config(t, D).radius, samples=64,
                              self_check=False)
        return lambda: Nm.contour_integral(lambda u: K.dlog_kato_siegel(u, t, D, cfg), 0.0,
                                           0.4 * min(1.0, abs(t)) / D, 32)
    if kind == "theta":
        return lambda: W.theta_normalized(a["z"], a["tau"])
    if kind == "zeta":
        return lambda: W.zeta_fn(a["z"], a["tau"])
    if kind == "wp":
        return lambda: W.wp(a["z"], a["tau"])
    if kind == "J":
        return lambda: K.jacobi_J(K.KroneckerPoint(a["z"], a["w"], W.ModuliPoint(a["tau"])))
    if kind == "s_coeffs":
        return lambda: K.s_coeffs(a["z"], a["tau"], a["D"], a["n"])
    if kind == "dlog":
        return lambda: K.dlog_kato_siegel(a["z"], a["tau"], a["D"])
    if kind == "L_form":
        return lambda: P.L_form(a["z"], a["tau"], a["D"], a["n"])

    def trunc():
        return Nm.LatticeTruncation(a["R"], ordering=a.get("ordering") or "eisenstein")

    def query(k=None):
        return E.EisensteinQuery(a["a"], a["b"], a["N"], a["k"] if k is None else k, a["tau"],
                                 mode=a["mode"], trunc=trunc() if a["mode"] == "naive" else None)

    if kind == "F":
        return lambda: E.F(query())
    if kind == "F_tilde":
        return lambda: E.F_tilde(query(), a["D"], allow_degenerate=True)
    if kind == "k2":
        return lambda: E.eisenstein_sum_k2(a["a"], a["b"], a["N"], a["tau"], trunc())
    if kind == "specialize":
        def spec_call():
            label = P.TorsionLabel(a["a"], a["b"], a["N"], a["D"])
            return P.specialize_eisenstein(label, a["tau"], a["k"], mode=a["mode"],
                                           trunc=trunc() if a["mode"] == "naive" else None)
        return spec_call
    raise ValueError(f"unknown call kind {kind!r}")


def canonical(value):
    """A comparable, exact form of a call's result (or of the exception)."""
    if isinstance(value, BaseException):
        return ("raise", type(value).__name__, str(value))
    if isinstance(value, dict):  # a verify report, as the CLI prints it
        return json.dumps(value, indent=2, allow_nan=False)
    if isinstance(value, complex) or hasattr(value, "imag"):
        return (float(value.real), float(value.imag))
    if isinstance(value, tuple):
        return tuple(canonical(v) for v in value)
    if hasattr(value, "coeffs") and isinstance(value.coeffs, tuple):  # DVariantCoeffs
        return canonical(value.coeffs)
    if hasattr(value, "dz") and hasattr(value, "dtau"):  # LogValuedForm
        return tuple(tuple(sorted((k, canonical(c)) for k, c in f.coeffs.items()))
                     for f in (value.dz, value.dtau))
    raise TypeError(f"cannot canonicalize {type(value).__name__}")
