"""Printed and JSON bytes of the coefficient-ring adapters, the three
series divisions, the q = 1 + hbar Weyl computations and the QQ(q) and
QQ(lambda) computations.  The adapter and division pins were recorded before
the adapters became one Ring class, the Weyl pins before series over QQ moved
to integer numerators, and the QQ(q) and QQ(lambda) pins before rational
function arithmetic reduced by the gcds of the denominators.

Each case is built from fixed seeds; its pin is the SHA-256 of str(value),
a newline, and the JSON dump of cli._encode of its to_json() (the value
itself for a rational), so any change to a reported byte shows here.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from diagdeform.acceptance import DEFAULT_SEED, _rng
from diagdeform.cli import _encode
from diagdeform.groebner import buchberger, exceptional_values, sphere_ideal
from diagdeform.qweyl import (
    classical,
    commutator_divisibility,
    deformed,
    pochhammer_xy,
    stirling_first,
    stirling_second,
)
from diagdeform.scalars import (
    LAMBDA,
    QQ,
    QVAR,
    RatFunc,
    RatFuncRing,
    SeriesRing,
    TruncSeries,
    exp_hbar,
    series_div_valuation,
    series_expand,
)
from diagdeform.sphere import P0, P1, PL, SPHERE, SphereElement
from diagdeform.star import P2, Poly2
from diagdeform.weyl_iso import (
    closed_form_a,
    gz_element,
    recursion_report,
    solve_z,
    verify_closed_form,
)


def _bytes(v) -> str:
    data = v.to_json() if hasattr(v, "to_json") else v
    return f"{v}\n{json.dumps(_encode(data))}"


def _rational(rng, nonzero=False):
    n = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
    return F(n, rng.randint(1, 4))


def _unit_series(seed):
    rng = random.Random(f"unit/{seed}")
    return TruncSeries(QQ, 6, [_rational(rng, True)] + [_rational(rng) for _ in range(6)])


def _qq_quotient(seed):
    rng = random.Random(f"qq/{seed}")
    v = seed % 3
    num = [F(0)] * v + [_rational(rng, True)] + [_rational(rng) for _ in range(6 - v)]
    den = [F(0)] * v + [_rational(rng, True)] + [_rational(rng) for _ in range(5 - v)]
    return series_div_valuation(TruncSeries(QQ, 6, num), TruncSeries(QQ, 5, den))


def _weyl_quotient(order):
    """As weyl_iso.gz_element divides: classical() numerator over e^hbar - 1."""
    W = classical()
    u = W.x * W.y
    coeffs, p = [W.zero], W.one
    for k in range(1, order + 1):
        p = p * u + W.monomial(k % 3, k % 2, F(1, k))
        coeffs.append(p.scale(F((-1) ** k, k + 1)))
    return series_div_valuation(TruncSeries(W, order, coeffs), exp_hbar(order) - 1)


def _sphere_element(rng):
    lam = RatFunc.gen(LAMBDA)
    out = SphereElement.zero()
    for _ in range(3):
        c = _rational(rng, True) * (lam + rng.randint(-2, 2))
        tag = rng.choice(["", P0, P1, PL])
        n = rng.randint(0 if not tag else 1, 2)
        out = out + (SphereElement.x_power(n, c) if not tag else SphereElement.pole(tag, n, c))
    return out


def _sphere_quotient(seed, den_ring):
    rng = random.Random(f"sphere/{seed}")
    num = TruncSeries(SPHERE, 4, [SPHERE.zero] + [_sphere_element(rng) for _ in range(4)])
    if den_ring == "rational":
        den = TruncSeries(QQ, 4, [F(0)] + [_rational(rng, True) for _ in range(4)])
    else:
        lam = RatFunc.gen(LAMBDA)
        den = TruncSeries(SPHERE, 4, [SPHERE.zero, SphereElement.const(lam + 1)]
                          + [_sphere_element(rng) for _ in range(3)])
    return series_div_valuation(num, den)


def _oracle_words(seed=DEFAULT_SEED):
    """The 100 deformed(6) words of the rewriting-oracle criterion."""
    rng = _rng(seed, 101)
    return ["".join(rng.choice("xy") for _ in range(rng.randint(0, 8))) for _ in range(100)]


def _oracle_products(route):
    W = deformed(6)
    out = []
    for word in _oracle_words():
        if route == "normalize":
            out.append(W.normalize([(1, word)]))
            continue
        p = W.one
        for ch in word:
            p = W.multiply(p, W.x if ch == "x" else W.y)
        out.append(p)
    return out


def _sphere_run(field):
    run = buchberger(sphere_ideal())
    if field == "exceptional_values":
        return exceptional_values(run)
    return getattr(run, field)


ADAPTERS = ("QQ", "QQ(q)", "series", "P2", "SPHERE", "classical")


def _adapters() -> dict:
    q = RatFunc.gen(QVAR)
    lam = RatFunc.gen(LAMBDA)
    W = classical()
    return {
        "QQ": (QQ, F(-2, 3)),
        "QQ(q)": (RatFuncRing(QVAR), (q + 1) / (q * q - 2)),
        "series": (SeriesRing(QQ, 3), TruncSeries(QQ, 3, [2, 1, F(-1, 2)])),
        "P2": (P2, Poly2.const(F(3, 4))),
        "SPHERE": (SPHERE, SphereElement.const(lam / (lam - 1))),
        "classical": (W, W.coerce(5)),
    }


def _adapter(name, what):
    ring, unit = _adapters()[name]
    if what == "repr":
        return repr(ring)
    if what == "from_rational":
        return ring.from_rational(3)
    if what == "inv":
        return ring.inv(unit)
    return getattr(ring, what)


CASES = (
    [(f"inv/{s}", lambda s=s: SeriesRing(QQ, 6).inv(_unit_series(s))) for s in range(10)]
    + [(f"div/qq/{s}", lambda s=s: _qq_quotient(s)) for s in range(4)]
    + [(f"div/classical/{n}", lambda n=n: _weyl_quotient(n)) for n in (1, 3, 5)]
    + [(f"div/sphere/{s}/{d}", lambda s=s, d=d: _sphere_quotient(s, d))
       for s in range(2) for d in ("rational", "sphere")]
    + [(f"expand/{r}", lambda r=r: series_expand(closed_form_a(r), 8)) for r in range(1, 6)]
    + [(f"adapter/{name}/{what}", lambda name=name, what=what: _adapter(name, what))
       for name in ADAPTERS for what in ("repr", "zero", "one", "from_rational", "inv")]
    + [("weyl/solve_z/12", lambda: solve_z(12))]
    + [(f"weyl/closed_form/{r}", lambda r=r: verify_closed_form(r)) for r in range(8, 13)]
    + [("weyl/gz_element/9", lambda: gz_element(9)),
       ("weyl/recursion_report/3", lambda: recursion_report(solve_z(3)))]
    + [(f"weyl/oracle/{route}", lambda route=route: _oracle_products(route))
       for route in ("multiply", "normalize")]
    + [("qweyl/stirling_first/7", lambda: stirling_first(7)),
       ("qweyl/stirling_second/7", lambda: stirling_second(7)),
       ("qweyl/commutator_divisibility/12", lambda: commutator_divisibility(12)),
       ("qweyl/pochhammer_xy/10", lambda: pochhammer_xy(10))]
    + [(f"groebner/sphere/{field}", lambda field=field: _sphere_run(field))
       for field in ("basis", "pre_monic_leads", "pivot_log", "exceptional_values")]
)

PINS = {
    "inv/0": "4e2a711d030a52363885feb0fb42fa73bb96ebd794d774cd3749c83799821150",
    "inv/1": "738ca788041834b675ff1654e50f0ca4bf9e5fd498b8d2e5110f338e11d98312",
    "inv/2": "114d7fa9866b1a926c2509f94f28a29d7045aa76894382d0a90a989f220efac0",
    "inv/3": "f3c28332189c99629faeb60ea0366124992a89ee82e463dec5f25b7e0ba76755",
    "inv/4": "e2e48f34a4d264632516bf63313f665cde8ad3a0cc72aaad947ae1ef2c6d82cd",
    "inv/5": "9a7968182d86aef45661ac3f15c242152745617912c8a18716f8285fd87fbef8",
    "inv/6": "076a3f28451cc9de5b1ab0fb82931ff9e89884f60badd9095c9e04d5dacfc038",
    "inv/7": "baef7d5ded1c85f07bedcf8a0809e48346e440b26811b394f524d64188452651",
    "inv/8": "9086f25bc4c07f3c0810a1abf50c6b9e1cf6773f17062106a662c6d26b5b32ee",
    "inv/9": "3a7d3641246c47f41499d247f4ecd199f4ce452103656816c66d2cc1bb2976fd",
    "div/qq/0": "1c758a32ef1553e0b5e323bf4dd892f80e3488e1bdd9186f165a56bc24f8f6f1",
    "div/qq/1": "db9ea865943e75f077ae5770b4243cf163e6358ac08bc67e5044ebec83ac226c",
    "div/qq/2": "ef89afbbdb010db0c4ae9bb4cfd2a77af51c6eea8ac52112acb8837d59a0bdb7",
    "div/qq/3": "f37b6315a3e50925b5cf4cfb8c38146d202b334463775db60a09d3d0937aea48",
    "div/classical/1": "583de5e2ccb45718e9ab62c055858d314ae93f13df0b2418841704440bab659a",
    "div/classical/3": "9afc021e5b8c1b64bdf888b7fa65790df6032d4e75acd263753a5af21b446d02",
    "div/classical/5": "1ea846ae32399cc6aa6ca4ca5c589d12d10a7c3273fac3997777d79849153204",
    "div/sphere/0/rational": "9ed261c9997818db28d44c7249df5581347abd2e248b5562dfd840cb6e6a01d3",
    "div/sphere/0/sphere": "14d6f8946a5314471ef4a01214bf1eefd7fb49af2faa2735a1515709f43a3e52",
    "div/sphere/1/rational": "03d1cb859de9182f506892444b079cb5a46ed6a9d6186bde0924147c04eb1559",
    "div/sphere/1/sphere": "60495523a19a3f386d55ee7df69e2f571f78f25ee07898760eb4dc1e34f44f38",
    "expand/1": "9a8c7a7aedd4f9445ba98c8c7f6d04c1d4653384ea4d9821d0d21be154197b0c",
    "expand/2": "7365bb99292bc9a2d6fbab2d9ec3cdfbab527e6bf544677f5a4391b40b272894",
    "expand/3": "70aa79f0bbe0c375b6a8ff43399870dfca91a74b970e120761ad0c34103e34f1",
    "expand/4": "3865b8e1d9f223ebd0fd04c6db1a485e8a013035a11ff64e1d2fc6c043e7139b",
    "expand/5": "4d9e2c459fc8f120cda0d953e10f04126c246bde6def85c56cd7c12b0a011e10",
    "adapter/QQ/repr": "32cd476cba6543060e821fa5a547be60eecdcfca1ac5943cc706f8c02e21d381",
    "adapter/QQ/zero": "6fbe37ec1564874f3cbc0e16e8f673052bf28b6f9ea76d7bc1428e4d346b5fc9",
    "adapter/QQ/one": "966128886a4a1f7254c5f96cad0694700da86c6eed186ae184c21a08f4c28c77",
    "adapter/QQ/from_rational": "a7923d095a16af881ae15c158e6786474c634b75036548b8cf932169a1e4ccf7",
    "adapter/QQ/inv": "c888ff1e7855736b8078b2a20aba644ab8b8e29e6777a81be1b66d971f7ad9af",
    "adapter/QQ(q)/repr": "2563b29b3490b6114e102ba7b37d4c25300863ed45e23f13d77223debc4c32c4",
    "adapter/QQ(q)/zero": "6fbe37ec1564874f3cbc0e16e8f673052bf28b6f9ea76d7bc1428e4d346b5fc9",
    "adapter/QQ(q)/one": "966128886a4a1f7254c5f96cad0694700da86c6eed186ae184c21a08f4c28c77",
    "adapter/QQ(q)/from_rational": "a7923d095a16af881ae15c158e6786474c634b75036548b8cf932169a1e4ccf7",
    "adapter/QQ(q)/inv": "670e22e3a15e699f08fa52fbdf6f50d8a63fc81bef8b739023df2d68db3c0800",
    "adapter/series/repr": "34422b1d63548aa12364a99bbb47a81b57f1376072695b213f1ed3a1e0a5ee69",
    "adapter/series/zero": "f0998ad612b218354ddbfc817548780cd24156fb90f56c5fe5b8be8d413975a8",
    "adapter/series/one": "fc61b022b4225698f6363ceec6cfa3180da8b97594897f1ea75bbe25b1a34fa5",
    "adapter/series/from_rational": "270603df377831f23687f5f263b1717170f31f52ad0a6d7090e897a1c90cafed",
    "adapter/series/inv": "3615b48b05550482d872f1e713b37ac96af04590640d253781c1084b4c6f39eb",
    "adapter/P2/repr": "3d5d682aa4230074148ac1d73cb86bceb0b272b0c64a8ba00dd58c7ebf9858c6",
    "adapter/P2/zero": "8507aa71c923fc593cafd3ffbc7fe194a9bbf27d004e45b71c50192cc2d29fcc",
    "adapter/P2/one": "d8d239680124ea9c79d5d8b420753b1d324dbf4d6592378cb849b60a6d20aee8",
    "adapter/P2/from_rational": "cf6d874bf3e043ac872e4819b62780b10abc4d71ec99129f57bf1a6bd3c4f983",
    "adapter/P2/inv": "6f3ba44f2c121ded744d5ac1dcf1a7c8d3bdf85d277393b92c99c23f0c3b6257",
    "adapter/SPHERE/repr": "6a6dc70d263bb6d089da053b71a59c1b2f4642f90f0738585847cc8523b5ea66",
    "adapter/SPHERE/zero": "0f7b41cdaee4adc528df10e57bad41ee610e3da7c03a5e15601624885c75c5a6",
    "adapter/SPHERE/one": "96d349380cd90742a93defaac22a224b7de1e64ab08a79fc05f7b3406a4caa71",
    "adapter/SPHERE/from_rational": "6a8f553a42326060adc22d032be5d31526818c52dc9d7da2dea698e8ec33025e",
    "adapter/SPHERE/inv": "c02de70729f5c4984e2de3f66e9871471d2b9bf1dac8da669975bff0425be59d",
    "adapter/classical/repr": "e48130c79236547d1ba62edc3f8529d3dbbd32db6a699d3b46a9641e4ce692ce",
    "adapter/classical/zero": "8507aa71c923fc593cafd3ffbc7fe194a9bbf27d004e45b71c50192cc2d29fcc",
    "adapter/classical/one": "d8d239680124ea9c79d5d8b420753b1d324dbf4d6592378cb849b60a6d20aee8",
    "adapter/classical/from_rational": "cf6d874bf3e043ac872e4819b62780b10abc4d71ec99129f57bf1a6bd3c4f983",
    "adapter/classical/inv": "375eca104d3dde0dd20a3c1d6051875c5aa0f6ccb393dca8c241b7b26e0b292b",
    "weyl/solve_z/12": "d516efcc15eed4a273b51325bb8d67a8fc6c3995a5f3888d8ddec11b56001168",
    "weyl/closed_form/8": "56bb050affb1c3115a50b9bd0847ca8ddf5e2623649880636defd593e6ee883a",
    "weyl/closed_form/9": "21f0e28d0467db440d034fb6f34e04f4558a9663bca9dcf9ab93f490e651f6b8",
    "weyl/closed_form/10": "08b5e71daa2c15545d4afff61879d5c54847499d7d4d90f26039936c62f88e7b",
    "weyl/closed_form/11": "2f028f793368a017ee39d86d33a7163acdb43d6061382066925aa29187450498",
    "weyl/closed_form/12": "fc8870e2c8978721b9bfb3c9869c730eef8665c2b94f1211e25a9fa8a7a57fdc",
    "weyl/gz_element/9": "41583c9c3f581572dfcbb2cb1e8f576be2bed29e4b784e833a288bde4e282c26",
    "weyl/recursion_report/3": "b520488bba14aa0d26520a427c1eb171b129da6c9203a518c634510c57efae81",
    "weyl/oracle/multiply": "31e27873c01c35343033663e7b46b3913c84eddd415049b8bf4d63cc667c6101",
    "weyl/oracle/normalize": "31e27873c01c35343033663e7b46b3913c84eddd415049b8bf4d63cc667c6101",
    "qweyl/stirling_first/7": "91827c93d1132f388d170b94ad0fce6fd2a4636752470f0c4cc06f7d56c06378",
    "qweyl/stirling_second/7": "84322b18fc18d5329fb988392084c414693c370cd2527fc3dfa53f33c08d344a",
    "qweyl/commutator_divisibility/12": "786df7e4df5623ca555113aa29d2cfd6b37f24dd17662057b720ada0d5480d2a",
    "qweyl/pochhammer_xy/10": "17873b218471c94ecf7d748d0343815f0961a7bd6b42a2d47db42e26cf9852b1",
    "groebner/sphere/basis": "e661a274f6adfe80a1bafc5f5b655a45ddf13e99cf3f1b87ae0eadff7efcfd0b",
    "groebner/sphere/pre_monic_leads": "179e5a2cd177341ed920fc3c154d7cda730fc6781ddf97abd0d6c746f8ea1cb0",
    "groebner/sphere/pivot_log": "bc2247ab4b274a401fcded5b94db3278341ba8f9bd9915a6162a2630c198c7a0",
    "groebner/sphere/exceptional_values": "8accf86e491e0323d9853053471a2973eeef36e06459ed217dc86697b13deb70",
}


@pytest.mark.parametrize("name, build", CASES, ids=[c[0] for c in CASES])
def test_ring_and_series_bytes_are_pinned(name, build):
    assert hashlib.sha256(_bytes(build()).encode()).hexdigest() == PINS[name]
