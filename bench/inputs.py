"""Benchmark inputs, built without the engine.

Algebras travel as the engine's JSON documents (scalars as decimal strings).
Seed 0 keeps every basis as shipped; any other seed applies a sparse
unimodular change of basis that fixes e_0, so an algebra whose unit is e_0
keeps a unital basis.  Only stdlib arithmetic is used here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURES = Path("src/hochschild/fixtures")


# -- scalars ----------------------------------------------------------------------


def ring_key(scalars) -> str:
    """'Z', 'Q' or 'Fp' (the per-ring metric label)."""
    return "Fp" if isinstance(scalars, dict) else scalars


def modulus(scalars) -> int:
    return scalars["Fp"] if isinstance(scalars, dict) else 0


def parse(scalars, s: str):
    if scalars == "Q":
        return Fraction(s)
    v = int(s)
    return v % modulus(scalars) if modulus(scalars) else v


def fmt(scalars, v) -> str:
    p = modulus(scalars)
    if p:
        return str(v % p)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


# -- algebra documents ----------------------------------------------------------


def algebra_doc(scalars, names, unit, mul) -> dict:
    return {
        "scalars": scalars,
        "rank": len(names),
        "basis": list(names),
        "unit": [fmt(scalars, u) for u in unit],
        "mul": [fmt(scalars, c) for c in mul],
    }


def truncated_poly(scalars, n: int) -> dict:
    """k[x]/(x^n) on the monomial basis 1, x, ..., x^(n-1)."""
    mul = [0] * n**3
    for i in range(n):
        for j in range(n - i):
            mul[(i * n + j) * n + i + j] = 1
    names = ["1"] + [f"x^{i}" for i in range(1, n)]
    return algebra_doc(scalars, names, [1] + [0] * (n - 1), mul)


def free2_truncated(scalars) -> dict:
    """k<x, y> / (words of length 3): basis 1, x, y, xx, xy, yx, yy."""
    words = ["", "x", "y", "xx", "xy", "yx", "yy"]
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    mul = [0] * d**3
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            if a + b in index:
                mul[(i * d + j) * d + index[a + b]] = 1
    return algebra_doc(scalars, ["1"] + words[1:], [1] + [0] * (d - 1), mul)


def matrix_algebra(scalars, n: int) -> dict:
    """M_n(k) on the unital basis I, E_ij (i != j), E_11, ..., E_(n-1)(n-1).

    E_nn = I - E_11 - ... - E_(n-1)(n-1), so the basis is unimodular over Z.
    """
    units = [(i, j) for i in range(n) for j in range(n) if i != j] + [(i, i) for i in range(n - 1)]
    d = n * n

    def coords(mat: dict) -> list:
        # mat: {(i, j): v} -> coordinates on (I, units...)
        lam = mat.get((n - 1, n - 1), 0)
        out = [lam] + [0] * (d - 1)
        for k, (i, j) in enumerate(units, start=1):
            out[k] = mat.get((i, j), 0) - (lam if i == j else 0)
        return out

    def as_mat(k: int) -> dict:
        if k == 0:
            return {(i, i): 1 for i in range(n)}
        return {units[k - 1]: 1}

    mul = []
    for a in range(d):
        for b in range(d):
            prod: dict = {}
            for (i, j), u in as_mat(a).items():
                for (k, l), v in as_mat(b).items():
                    if j == k:
                        prod[(i, l)] = prod.get((i, l), 0) + u * v
            mul.extend(coords(prod))
    names = ["I"] + [f"E{i + 1}{j + 1}" for i, j in units]
    return algebra_doc(scalars, names, [1] + [0] * (d - 1), mul)


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


# -- change of basis ----------------------------------------------------------------


def basis_change(rank: int, seed: int, salt: str):
    """(P, P^-1) with f_i = sum_k P[i][k] e_k, integer and unimodular, P e_0 = e_0.

    A signed permutation of e_1..e_(d-1): sparse, and it keeps the sparsity
    of the structure constants, so every seed asks for the same amount of
    elimination.  (A transvection f_i += f_j can make one report several
    times slower: Z[x]/(x^4) HH^0..4 goes from 0.3 s to 1.5 s on some bases.)
    Identity at seed 0.
    """
    d = rank
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    if seed == 0 or d == 1:
        return eye, eye
    rng = random.Random(f"{seed}:{salt}")
    perm = list(range(1, d))
    rng.shuffle(perm)
    P = [[0] * d for _ in range(d)]
    P[0][0] = 1
    for row, k in enumerate(perm, start=1):
        P[row][k] = rng.choice((1, -1))
    return P, [list(col) for col in zip(*P)]  # a signed permutation is orthogonal


def _to_new(v, Pinv, reduce):
    """e-coordinates -> f-coordinates (e_k = sum_l Pinv[k][l] f_l)."""
    d = len(Pinv)
    return [reduce(sum(v[k] * Pinv[k][l] for k in range(d) if v[k])) for l in range(d)]


def _reducer(scalars):
    p = modulus(scalars)
    return (lambda x: x % p) if p else (lambda x: x)


def transform_algebra(doc: dict, P, Pinv) -> dict:
    sc = doc["scalars"]
    red = _reducer(sc)
    d = doc["rank"]
    c = [parse(sc, s) for s in doc["mul"]]
    # w[a*d+b] = e_a e_b in e-coordinates
    mul = []
    for i in range(d):
        for j in range(d):
            acc = [0] * d
            for a in range(d):
                if not P[i][a]:
                    continue
                for b in range(d):
                    if not P[j][b]:
                        continue
                    coef = P[i][a] * P[j][b]
                    base = (a * d + b) * d
                    for k in range(d):
                        if c[base + k]:
                            acc[k] += coef * c[base + k]
            mul.extend(_to_new(acc, Pinv, red))
    unit = _to_new([parse(sc, s) for s in doc["unit"]], Pinv, red)
    same = all(P[i][j] == (i == j) for i in range(d) for j in range(d))
    names = doc["basis"] if same else [doc["basis"][0]] + [f"f{i}" for i in range(1, d)]
    return algebra_doc(sc, names, unit, mul)


def regular_bimodule_doc(alg: dict, algebra_ref: str) -> dict:
    """A as a bimodule over itself: left[i] = matrix of x -> e_i x, right[i] of x -> x e_i."""
    sc, d = alg["scalars"], alg["rank"]
    c = alg["mul"]
    left = [[[c[(i * d + p) * d + q] for p in range(d)] for q in range(d)] for i in range(d)]
    right = [[[c[(p * d + i) * d + q] for p in range(d)] for q in range(d)] for i in range(d)]
    return {"algebra": algebra_ref, "rank": d, "left": left, "right": right}


def transform_cochain(matrix, P, Pinv, scalars):
    """B'(f_i, f_j) = sum P[i][a] P[j][b] B(e_a, e_b), valued in A (regular bimodule)."""
    red = _reducer(scalars)
    d = len(P)
    B = [[parse(scalars, s) for s in row] for row in matrix]
    cols = []
    for i in range(d):
        for j in range(d):
            acc = [0] * d
            for a in range(d):
                for b in range(d):
                    coef = P[i][a] * P[j][b]
                    if coef:
                        for q in range(d):
                            acc[q] += coef * B[q][a * d + b]
            cols.append(_to_new(acc, Pinv, red))
    return [[fmt(scalars, cols[t][q]) for t in range(d * d)] for q in range(d)]


# -- writing ------------------------------------------------------------------------


class InputWriter:
    """Writes the generated documents of one run into a work directory."""

    def __init__(self, workdir: Path, seed: int, variant: int = 0):
        self.dir = workdir
        self.seed = seed
        self.variant = variant
        self.dir.mkdir(parents=True, exist_ok=True)
        self._bases: dict[str, tuple] = {}

    def basis(self, name: str, rank: int):
        if name not in self._bases:
            self._bases[name] = basis_change(rank, self.seed, f"{self.variant}:{name}")
        return self._bases[name]

    def write(self, name: str, doc: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return str(path)

    def algebra(self, name: str, doc: dict) -> str:
        """Write <name>.json after the seed's change of basis; return its path."""
        P, Pinv = self.basis(name, doc["rank"])
        return self.write(f"{name}.json", transform_algebra(doc, P, Pinv))

    def regular_bimodule(self, name: str) -> str:
        alg = json.loads((self.dir / f"{name}.json").read_text())
        return self.write(f"{name}_regular.json", regular_bimodule_doc(alg, f"{name}.json"))

    def cochain_file(self, out_name: str, src: dict, algebra: str, key: str) -> str:
        """A cocycle or extension fixture over algebra `algebra` with the regular bimodule."""
        alg = json.loads((self.dir / f"{algebra}.json").read_text())
        P, Pinv = self.basis(algebra, alg["rank"])
        doc = {
            "algebra": f"{algebra}.json",
            "bimodule": f"{algebra}_regular.json",
            key: transform_cochain(src[key], P, Pinv, alg["scalars"]),
        }
        return self.write(out_name, doc)
