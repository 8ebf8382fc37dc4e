"""Generalized Calabi-Yau verification and exact push-forward densities.

A structure is a twisted-closed form whose Mukai pairing with its conjugate
is nonvanishing; parametric families are handled symbolically, with
nonvanishing checked at declared rational parameter samples.  The density of
the push-forward measure is an exact polynomial in the level parameter times
a power of the formal unit pi.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from ._record import Record, _set
from .forms import Form, exp_two_form, integrate, mukai, wedge
from .gcmaps import AnnihilatorReport, annihilator
from .models import Model, d, d_twisted
from .scalars import ONE, Scalar

Sample = Dict[str, Fraction]


class GCYError(ValueError):
    pass


class GCYStructure(Record):
    """Verified twisted-closed form with nonvanishing self-pairing; `pairing` is
    mukai(rho, conj rho), symbolic in the parameters."""

    def __init__(self, model: Model, rho: Form, half_dim: int, pairing: Scalar,
                 samples: Tuple[Sample, ...] = (), flags: Optional[AnnihilatorReport] = None):
        _set(self, "__dict__", {"model": model, "rho": rho, "half_dim": half_dim,
                                "pairing": pairing, "samples": samples, "flags": flags})


def gcy_check(
    model: Model, rho: Form, samples: Sequence[Sample] = ()
) -> GCYStructure:
    """Verify closedness symbolically and nondegeneracy at the samples."""
    if rho.n != model.n:
        raise GCYError("form lives on the wrong frame")
    if model.n % 2 != 0:
        raise GCYError("generalized structures need an even-dimensional model")
    res = d_twisted(model, rho)
    if not res.is_zero():
        raise GCYError(
            "form is not twisted-closed: residual %s" % res.to_text(model.names)
        )
    pairing = mukai(rho, rho.conjugate())
    points = [dict(s) for s in samples]
    if rho.parameters() and not points:
        raise GCYError("parametric structure needs at least one sample point")
    if points:
        for pt in points:
            value = pairing.substitute(pt)
            if value.is_zero():
                raise GCYError(
                    "pairing vanishes at sample %s" % _sample_text(pt)
                )
    elif pairing.is_zero():
        raise GCYError("pairing with the conjugate vanishes identically")
    flags = None
    if not rho.parameters():
        flags = annihilator(rho)
    elif points:
        flags = annihilator(rho.substitute(points[0]))
    return GCYStructure(
        model=model,
        rho=rho,
        half_dim=model.n // 2,
        pairing=pairing,
        samples=tuple(_freeze(p) for p in points),
        flags=flags,
    )


def _freeze(p: Sample):
    return tuple(sorted(p.items()))


def _sample_text(p: Sample) -> str:
    return ", ".join("%s=%s" % (k, v) for k, v in sorted(p.items()))


def volume_form(g: GCYStructure) -> Form:
    """Top form (-1)^n / (2i)^n times the self-pairing, n the half-dimension."""
    factor = (Scalar.rational(-1) / Scalar.imaginary(2)) ** g.half_dim
    return Form(g.model.n, {(1 << g.model.n) - 1: g.pairing}).scale(factor)


class GCYFamily(Record):
    """One-parameter family of structures sharing a closed 2-form twist."""

    def __init__(self, structure: GCYStructure, param: str, base: Form, twist: Form):
        _set(self, "__dict__", {"structure": structure, "param": param, "base": base,
                                "twist": twist})

    @property
    def model(self) -> Model:
        return self.structure.model

    @property
    def rho(self) -> Form:
        return self.structure.rho

    def member(self, value) -> Form:
        return self.rho.substitute({self.param: Fraction(value)})


def quotient_family(
    model: Model,
    rho: Form,
    c: Form,
    param: str,
    samples: Sequence[Sample] = (),
) -> GCYFamily:
    """Family exp(-i t c) ^ rho over a closed 2-form, verified memberwise tests."""
    if not (c.is_zero() or c.is_homogeneous(2)):
        raise GCYError("family twist must be a 2-form")
    dc = d(model, c)
    if not dc.is_zero():
        raise GCYError("family twist is not closed: %s" % dc.to_text(model.names))
    t = Scalar.parameter(param)
    shear = exp_two_form(c.scale(-(Scalar.imaginary(1) * t)))
    rho_t = wedge(shear, rho)
    pts = list(samples) if samples else [{param: Fraction(0)}, {param: Fraction(1)}]
    structure = gcy_check(model, rho_t, pts)
    return GCYFamily(structure=structure, param=param, base=rho, twist=c)


class DHResult(Record):
    """Exact density of the push-forward measure on regular values."""

    def __init__(self, density: Scalar, n: int, k: int, degree_bound: int,
                 normalization: Scalar, real: bool):
        _set(self, "__dict__", {"density": density, "n": n, "k": k, "degree_bound": degree_bound,
                                "normalization": normalization, "real": real})

    def degree(self) -> int:
        return max(self.density.degree(), 0)


def dh_normalization(n: int, k: int) -> Scalar:
    """(-1)^(n + k(k+1)/2) (2 pi)^k / (2i)^(n-k) as an exact scalar."""
    if not 0 <= k <= n:
        raise ValueError("torus rank k must satisfy 0 <= k <= n")
    sign = -1 if (n + k * (k + 1) // 2) % 2 else 1
    out = Scalar.rational(sign) * (Scalar.rational(2) * Scalar.pi()) ** k
    out = out * (ONE / Scalar.imaginary(2)) ** (n - k)
    return out


def dh_density(
    fam: GCYFamily,
    n: int,
    k: int,
    orientation: int = 1,
    constant_type: Optional[int] = None,
) -> DHResult:
    """Exact density: normalization times the integrated self-pairing.

    The quotient model must have 2(n-k) generators; the result is a
    polynomial in the family parameter of degree at most n-k, and at most
    n-k-p when a constant type p is declared.
    """
    model = fam.model
    if model.n != 2 * (n - k):
        raise GCYError(
            "quotient model has %d generators, expected 2(n-k) = %d"
            % (model.n, 2 * (n - k))
        )
    norm = dh_normalization(n, k)
    top = Form(model.n, {(1 << model.n) - 1: fam.structure.pairing})  # gcy_check's pairing
    density = norm * integrate(top, model.volume, orientation)
    bound = n - k
    if constant_type is not None:
        if constant_type < 0:
            raise ValueError("constant type must be nonnegative")
        bound = n - k - constant_type
    deg = density.degree(fam.param)
    if deg > bound:
        raise GCYError(
            "density degree %d exceeds the bound %d: conventions bug" % (deg, bound)
        )
    return DHResult(
        density=density,
        n=n,
        k=k,
        degree_bound=bound,
        normalization=norm,
        real=density.is_real(),
    )


class LefschetzReport(Record):
    def __init__(self, ok: bool, witness: Optional[Form] = None, detail: str = ""):
        _set(self, "__dict__", {"ok": ok, "witness": witness, "detail": detail})


def lefschetz_check(model: Model, omega: Form) -> LefschetzReport:
    """Exact bijectivity of wedging 1-forms with omega^(n-1).

    On an invariant model this pins down rigidity: the only invariant closed
    sections proportional to the symplectic exponential have constant
    coefficient.  The map is bijective iff omega^n is nonzero: in a Darboux
    basis of a nondegenerate omega it sends the 2n basis 1-forms to nonzero
    multiples of the 2n distinct (2n-1)-forms.
    """
    if model.n % 2 != 0:
        raise ValueError("model dimension must be even")
    if not omega.is_homogeneous(2) or omega.is_zero():
        raise ValueError("need a nonzero homogeneous 2-form")
    power = Form.unit(model.n)
    for _ in range(model.n // 2):
        power = wedge(power, omega)
    if power.top_coefficient().is_zero():
        return LefschetzReport(ok=False, detail="2-form is degenerate: top power vanishes")
    return LefschetzReport(ok=True)
