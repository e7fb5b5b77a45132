"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of requests (one *pass*) built from the
workload seed alone; the benchmark cycles through the pass in order.  cmkit
receives only the JSON documents and command lines built here, and each
request carries what the checks need to verify its report exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import qmat


@dataclass
class Request:
    family: str
    argv: list[str]
    doc: bytes | None
    n: int
    bits: int
    expect: dict = field(default_factory=dict)
    h_doc: bytes | None = None  # contents of the ``--h`` file of ``homotopy``

    @property
    def command(self) -> str:
        return self.argv[0]


def _draw(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def sample_point(n: int, seed: int) -> dict:
    """The rank-1 CM point of ``cmkit sample --n n --seed seed``, same recipe and stream."""
    rng = random.Random(seed)
    span = max(6, 3 * n)
    xs: list[Fraction] = []
    while len(xs) < n:
        c = _draw(rng, span)
        if c not in xs:
            xs.append(c)
    ivals: list[Fraction] = []
    while len(ivals) < n:
        c = _draw(rng, 4)
        if c != 0:
            ivals.append(c)
    jvals = [1 / c for c in ivals]
    ydiag = [_draw(rng, 4) for _ in range(n)]
    Y = [[ydiag[k] if k == l else ivals[k] * jvals[l] / (xs[k] - xs[l]) for l in range(n)]
         for k in range(n)]
    X = [[xs[k] if k == l else Fraction(0) for l in range(n)] for k in range(n)]
    return {"X": X, "Y": Y, "i": [[v] for v in ivals], "j": [jvals]}


def rand_invertible(rng: random.Random, n: int):
    """Entries p/q with |p| <= 3, 1 <= q <= 3, redrawn until invertible."""
    while True:
        g = [[_draw(rng, 3) for _ in range(n)] for _ in range(n)]
        if qmat.rank(g) == n:
            return g


def conjugate(q: dict, g) -> dict:
    ginv = qmat.inverse(g)
    return {
        "X": qmat.mul(qmat.mul(g, q["X"]), ginv),
        "Y": qmat.mul(qmat.mul(g, q["Y"]), ginv),
        "i": qmat.mul(g, q["i"]),
        "j": qmat.mul(q["j"], ginv),
    }


def _doc(n: int, **mats) -> bytes:
    body = {"n": n, "r": 1, "field": "rational"}
    for key, value in mats.items():
        body[key] = value if key == "j" and isinstance(value, dict) else qmat.to_json(value)
    return json.dumps(body, separators=(",", ":")).encode()


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- request builders ------------------------------------------------------

def fiber(q: dict) -> Request:
    n = len(q["X"])
    return Request("fiber-solve", ["fiber-solve"], _doc(n, X=q["X"], i=q["i"]), n,
                   qmat.max_bits(q["X"], q["i"]), {"X": q["X"], "i": q["i"]})


def classify_cyclic(q: dict) -> Request:
    """Diagonal X with distinct entries and a framing with no zero entry: End is the scalars."""
    n = len(q["X"])
    roots = [q["X"][k][k] for k in range(n)]
    return Request("classify-cyclic", ["classify"], _doc(n, X=q["X"], i=q["i"]), n,
                   qmat.max_bits(q["X"], q["i"]),
                   {"code": 0, "end_dim": 1, "indecomposable": True, "in_cm_support": True,
                    "fiber_dim": n, "framing_surjective": True,
                    "support": sorted(((-x, Fraction(1)), 1) for x in roots)})


def classify_scalar(rng: random.Random, n: int) -> Request:
    """X = cI with r = 1: End has dimension n^2 - n + 1, decomposable, empty fiber."""
    c = _draw(rng, 6)
    X = qmat.scale(c, qmat.identity(n))
    i = [[_draw(rng, 4) or Fraction(1)] for _ in range(n)]
    return Request("classify-scalar", ["classify"], _doc(n, X=X, i=i), n, qmat.max_bits(X, i),
                   {"code": 1, "end_dim": n * n - n + 1, "indecomposable": False,
                    "in_cm_support": False, "fiber_dim": None, "framing_surjective": False,
                    "support": [((-c, Fraction(1)), n)]})


def invariants(rng: random.Random, n: int, max_len: int) -> Request:
    """A conjugated CM point; its invariants must equal those of the unconjugated one."""
    base = sample_point(n, _seed(rng))
    q = conjugate(base, rand_invertible(rng, n))
    return Request("invariants", ["invariants", "--max-len", str(max_len)], _doc(n, **q), n,
                   qmat.max_bits(*q.values()), {"base": base, "max_len": max_len})


def hilbert(rng: random.Random, n: int) -> Request:
    """gXg^-1, gYg^-1 with X, Y diagonal: n distinct points, commuting, cyclic framing."""
    points: list[tuple[Fraction, Fraction]] = []
    xs: set[Fraction] = set()
    while len(points) < n:
        a, b = _draw(rng, 2 * n), _draw(rng, 2 * n)
        if a not in xs:
            xs.add(a)
            points.append((a, b))
    X = [[points[k][0] if k == l else Fraction(0) for l in range(n)] for k in range(n)]
    Y = [[points[k][1] if k == l else Fraction(0) for l in range(n)] for k in range(n)]
    base = {"X": X, "Y": Y, "i": [[Fraction(1)] for _ in range(n)], "j": qmat.zeros(1, n)}
    q = conjugate(base, rand_invertible(rng, n))
    return Request("hilbert-ideal", ["hilbert-ideal"], _doc(n, **q), n,
                   qmat.max_bits(*q.values()), {"points": points})


def cech(twist: int, cutoff: int) -> Request:
    return Request("cech", ["cech", "--twist", str(twist), "--cutoff", str(cutoff)], None,
                   cutoff, 0, {"twist": twist})


def _homotopy_shift(q: dict, h: list) -> tuple[list, list]:
    """(Y + sum_k X^k i h_k, coefficients of j + x h(x) - h(x) X), trailing zeros trimmed."""
    n = len(q["X"])
    y, xk = q["Y"], qmat.identity(n)
    for k, hk in enumerate(h):
        if k:
            xk = qmat.mul(xk, q["X"])
        y = qmat.add(y, qmat.mul(qmat.mul(xk, q["i"]), hk))
    coeffs = [q["j"]] + [qmat.zeros(1, n) for _ in h]
    for k, hk in enumerate(h):
        coeffs[k + 1] = qmat.add(coeffs[k + 1], hk)
        coeffs[k] = qmat.sub(coeffs[k], qmat.mul(hk, q["X"]))
    while len(coeffs) > 1 and qmat.is_zero(coeffs[-1]):
        coeffs.pop()
    return y, coeffs


def _covector(coeffs: list) -> dict:
    return {"coeffs": [qmat.to_json(c) for c in coeffs]}


def normalize(rng: random.Random, n: int) -> Request:
    """A CM point moved off constant covectors by a homotopy; normalize must bring it back."""
    q = sample_point(n, _seed(rng))
    h = [[[_draw(rng, 3) for _ in range(n)]] for _ in range(2)]
    y, coeffs = _homotopy_shift(q, h)
    doc = _doc(n, X=q["X"], i=q["i"], Y=y, j=_covector(coeffs))
    return Request("normalize", ["normalize"], doc, n, qmat.max_bits(y, *coeffs), {"quadruple": q})


def homotopy(rng: random.Random, n: int) -> Request:
    q = sample_point(n, _seed(rng))
    h = [[[_draw(rng, 3) for _ in range(n)]] for _ in range(2)]
    y, coeffs = _homotopy_shift(q, h)
    doc = _doc(n, X=q["X"], i=q["i"], Y=q["Y"], j=_covector([q["j"]]))
    return Request("homotopy", ["homotopy"], doc, n, qmat.max_bits(*q.values()),
                   {"X": q["X"], "i": q["i"], "Y": y, "coeffs": coeffs},
                   h_doc=json.dumps(_covector(h)).encode())


def verify(q: dict, command: str) -> Request:
    n = len(q["X"])
    argv = ["moment", "--convention", "std"] if command == "moment" else ["verify"]
    return Request(command, argv, _doc(n, **q), n, qmat.max_bits(*q.values()), {"q": q})


def sample(n: int, seed: int) -> Request:
    return Request("sample", ["sample", "--n", str(n), "--seed", str(seed)], None, n, 0,
                   {"quadruple": sample_point(n, seed)})


# -- workloads -------------------------------------------------------------
#
# A run repeats whole passes and needs 100 requests, so each pass holds 100
# or more, all distinct: a run is then one pass, averages over many inputs
# of each kind, and its percentiles depend little on the seed.

def fiber_diag(seed: int) -> list[Request]:
    rng = random.Random(f"fiber-diag/{seed}")
    return [fiber(sample_point(n, _seed(rng))) for _ in range(15) for n in range(6, 13)]


# n = 5, 6, 7 in the ratio 5:2:1: p90 falls inside the n = 7 cluster, and
# the mean stays low enough for 100 requests in a run.
DENSE_SIZES = (5, 6, 5, 7, 5, 6, 5, 5)


def fiber_dense(seed: int) -> list[Request]:
    rng = random.Random(f"fiber-dense/{seed}")
    return [fiber(conjugate(sample_point(n, _seed(rng)), rand_invertible(rng, n)))
            for _ in range(13) for n in DENSE_SIZES]


# One pass of structure: size -> count for each kind of request.  The counts
# keep each family's share of the time under a half (see README), and shape
# the latencies so that p50 falls among the n = 6 classify, hilbert-ideal and
# cutoff-8 cech requests and p90 among the scalar n = 4 classify and
# cutoff-10 cech requests: clusters whose cost the seed barely moves.
STRUCTURE_PLAN = {
    "classify-cyclic": {6: 10, 7: 3, 8: 4},
    "classify-scalar": {3: 10, 4: 12, 5: 2},
    "invariants": {6: 12, 7: 2, 8: 2},
    "hilbert-ideal": {4: 8, 5: 8, 6: 8},
    "cech": {8: 11, 9: 3, 10: 5},
}


def _sizes(counts: dict[int, int]) -> list[int]:
    return _interleave([[n] * c for n, c in counts.items()])


def structure(seed: int) -> list[Request]:
    rng = random.Random(f"structure/{seed}")
    plan = {family: _sizes(counts) for family, counts in STRUCTURE_PLAN.items()}
    # The twists cycle through -4..4 rather than being drawn: the cost of cech
    # depends on the twist alone, and this keeps it the same for every seed.
    hilbert_cech = _interleave([[hilbert(rng, n) for n in plan["hilbert-ideal"]],
                                [cech(k % 9 - 4, c) for k, c in enumerate(plan["cech"])]])
    for req in hilbert_cech:
        req.family = "hilbert-cech"
    return _interleave([
        [classify_cyclic(sample_point(n, _seed(rng))) for n in plan["classify-cyclic"]],
        [classify_scalar(rng, n) for n in plan["classify-scalar"]],
        [invariants(rng, n, 4) for n in plan["invariants"]],
        hilbert_cech,
    ])


def _interleave(groups: list[list]) -> list:
    """Merge the groups so that each is spread evenly over the result."""
    keyed = [((k + 0.5) / len(g), gi, item)
             for gi, g in enumerate(groups) for k, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def cli_cold(seed: int) -> list[Request]:
    """Ten rounds of all ten commands on n <= 6; classify twice a round, exit 0 and exit 1."""
    rng = random.Random(f"cli-cold/{seed}")
    out = []
    for round_ in range(10):
        point = conjugate(sample_point(5, _seed(rng)), rand_invertible(rng, 5))
        out += [
            verify(point, "verify"),
            fiber(sample_point(6, _seed(rng))),
            invariants(rng, 4, 3),
            classify_cyclic(sample_point(5, _seed(rng))),
            hilbert(rng, 4),
            normalize(rng, 4),
            sample(6, _seed(rng)),
            classify_scalar(rng, 3),
            homotopy(rng, 4),
            verify(point, "moment"),
            cech(round_ % 7 - 3, 6),
        ]
    return out


WORKLOADS = {
    "fiber-diag": fiber_diag,
    "fiber-dense": fiber_dense,
    "structure": structure,
    "cli-cold": cli_cold,
}
