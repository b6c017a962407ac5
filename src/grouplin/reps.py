"""Irreducible unitary representations of finite groups.

The decomposition works on the right-regular representation R_G: a random
Hermitian matrix averaged over the group action lands in the commutant of
R_G, and for a generic choice its eigenspaces are exactly the irreducible
invariant subspaces. Equivalent blocks are then merged by character and the
canonical survivors are unitarized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionFailed,
    InvalidParams,
    NonIntegerMultiplicity,
)
from .groups import FiniteGroup, Subgroup, trivial_subgroup

_EIG_GAP = 1e-7         # relative gap separating eigenvalue clusters
_CHAR_MATCH = 1e-6      # character distance identifying equivalent irreps
_INT_GUARD = 1e-6       # how far a multiplicity may sit from an integer


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """A matrix representation with one complex matrix per group element."""

    group: FiniteGroup
    matrices: np.ndarray  # (|G|, dim, dim)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def character(self) -> np.ndarray:
        """The trace of every matrix, computed once per rep: a read-only
        array that every caller shares."""
        return self._character

    @functools.cached_property
    def _character(self) -> np.ndarray:
        chi = np.trace(self.matrices, axis1=1, axis2=2)
        chi.flags.writeable = False
        return chi

    def homomorphism_residual(self) -> float:
        t = self.group.table
        n = len(self.group)
        worst = 0.0
        for g in range(n):
            prod = self.matrices[g] @ self.matrices
            diff = prod - self.matrices[[t[g][h] for h in range(n)]]
            worst = max(worst, float(np.abs(diff).max()))
        return worst

    def unitarity_residual(self) -> float:
        eye = np.eye(self.dim)
        prods = self.matrices @ self.matrices.conj().transpose(0, 2, 1)
        return float(np.abs(prods - eye).max())


@dataclass(frozen=True, eq=False)
class IrrepSet:
    """A complete set of inequivalent irreducible unitary representations.

    The trivial representation comes first; the rest are sorted by dimension
    and then by character, so the set is canonical given the seed.
    """

    group: FiniteGroup
    irreps: tuple[UnitaryRep, ...]
    tol: float

    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    def validate(self) -> float:
        """Check the completeness invariants; returns the worst residual."""
        n = len(self.group)
        if sum(r.dim**2 for r in self.irreps) != n:
            raise DecompositionFailed("sum of squared dimensions != |G|")
        if self.irreps[0].dim != 1 or np.abs(
            self.irreps[0].matrices - 1.0
        ).max() > 0:
            raise DecompositionFailed("first representation must be trivial")
        worst = 0.0
        chars = np.stack([r.character() for r in self.irreps])
        gram = chars @ chars.conj().T / n
        worst = max(worst, float(np.abs(gram - np.eye(len(self.irreps))).max()))
        for r in self.irreps:
            worst = max(worst, r.homomorphism_residual(), r.unitarity_residual())
        if worst > self.tol:
            raise DecompositionFailed(f"residual {worst:.3e} above tol {self.tol}")
        return worst


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _cluster(eigvals: np.ndarray) -> list[slice]:
    spread = max(1.0, float(eigvals[-1] - eigvals[0]))
    cuts = [0]
    for k in range(1, len(eigvals)):
        if eigvals[k] - eigvals[k - 1] > _EIG_GAP * spread:
            cuts.append(k)
    cuts.append(len(eigvals))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _unitarize(group: FiniteGroup, mats: np.ndarray) -> np.ndarray:
    """Change basis so the averaged inner product becomes the standard one."""
    s = np.mean(mats.conj().transpose(0, 2, 1) @ mats, axis=0)
    w, u = np.linalg.eigh(s)
    if w.min() <= 0:
        raise DecompositionFailed("averaged Gram matrix not positive definite")
    m = (u * np.sqrt(w)) @ u.conj().T
    m_inv = (u / np.sqrt(w)) @ u.conj().T
    return m @ mats @ m_inv


class _SplitFailure(Exception):
    pass


def _split_attempt(group: FiniteGroup, reg: np.ndarray, rng: np.random.Generator):
    n = len(group)
    h = _random_hermitian(rng, n)
    t = np.einsum("gab,bc,gdc->ad", reg, h, reg)  # sum_g R(g) H R(g)^-1
    t = (t + t.conj().T) / 2
    eigvals, vecs = np.linalg.eigh(t)
    blocks = []
    for sl in _cluster(eigvals):
        p = vecs[:, sl]
        mats = np.einsum("ab,gbc,cd->gad", p.conj().T, reg, p)
        rep = UnitaryRep(group, mats)
        chi = rep.character()
        norm = float(np.mean(np.abs(chi) ** 2))
        if abs(norm - 1.0) > _CHAR_MATCH:
            raise _SplitFailure(f"reducible block, <chi,chi> = {norm:.4f}")
        if rep.homomorphism_residual() > 1e-8:
            raise _SplitFailure("block is not a homomorphism")
        blocks.append(rep)
    return blocks


def _char_key(rep: UnitaryRep) -> tuple:
    chi = rep.character()
    return tuple((round(float(c.real), 8), round(float(c.imag), 8)) for c in chi)


def irreps(group: FiniteGroup, seed: int = 0, tol: float = 1e-9) -> IrrepSet:
    """Compute a complete set of inequivalent irreducible unitary reps.

    Deterministic given ``seed``. Retries with a fresh random Hermitian (up
    to 8 times) if an eigenvalue collision produces a reducible block, and
    raises DecompositionFailed if the retry budget is exhausted. Memoized
    per (group, seed, tol): callers share the returned set, so its matrices
    are read-only.
    """
    if not 0 < tol <= 1e-6:
        raise InvalidParams(f"tol must be in (0, 1e-6], got {tol}")
    return _irreps(group, seed, tol)


@functools.lru_cache(maxsize=64)
def _irreps(group: FiniteGroup, seed: int, tol: float) -> IrrepSet:
    n = len(group)
    reg = regular_representation(group).matrices
    rng = np.random.default_rng(seed)
    last = "no attempt"
    for _ in range(8):
        try:
            blocks = _split_attempt(group, reg, rng)
        except _SplitFailure as exc:
            last = str(exc)
            continue
        chosen: list[UnitaryRep] = []
        seen_keys: list[np.ndarray] = []
        for rep in blocks:
            chi = rep.character()
            if any(np.abs(chi - k).max() < _CHAR_MATCH for k in seen_keys):
                continue
            seen_keys.append(chi)
            chosen.append(rep)

        out: list[UnitaryRep] = []
        for rep in chosen:
            chi = rep.character()
            if rep.dim == 1 and np.abs(chi - 1.0).max() < _CHAR_MATCH:
                mats = np.ones((n, 1, 1), dtype=complex)
                out.append(UnitaryRep(group, mats))
            else:
                out.append(UnitaryRep(group, _unitarize(group, rep.matrices)))
        out.sort(
            key=lambda r: (
                0 if (r.dim == 1 and np.abs(r.character() - 1).max() < 1e-9) else 1,
                r.dim,
                _char_key(r),
            )
        )
        result = IrrepSet(group, tuple(out), tol)
        try:
            result.validate()
        except DecompositionFailed as exc:
            last = str(exc)
            continue
        for rep in out:
            rep.matrices.flags.writeable = False
        return result
    raise DecompositionFailed(
        f"{group.name}: regular representation did not split cleanly: {last}"
    )


def _snap_integer(value: complex, what: str) -> int:
    if abs(value.imag) > _INT_GUARD or abs(value.real - round(value.real)) > _INT_GUARD:
        raise NonIntegerMultiplicity(f"{what} = {value} is not an integer")
    return int(round(value.real))


def multiplicity(rho: UnitaryRep, gamma: UnitaryRep) -> int:
    """Multiplicity of the irreducible ``rho`` inside ``gamma``."""
    if rho.group != gamma.group:
        raise InvalidParams("representations of different groups")
    val = complex(np.mean(rho.character() * np.conj(gamma.character())))
    return _snap_integer(val, "multiplicity")


def right_regular(group: FiniteGroup, h: Subgroup) -> UnitaryRep:
    """Permutation representation on the right cosets H\\G.

    Entry (Hg1, Hg2) of R(g) is 1 iff Hg1 = Hg2 * g^-1.
    """
    if h.parent != group:
        raise InvalidParams("subgroup of a different group")
    n = len(group)
    coset_of = {}
    reps = []
    for g in range(n):
        if g in coset_of:
            continue
        members = sorted(group.mul(x, g) for x in h.members)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    k = len(reps)
    mats = np.zeros((n, k, k))
    for g in range(n):
        ginv = group.inv(g)
        for c2, rep2 in enumerate(reps):
            mats[g, coset_of[group.mul(rep2, ginv)], c2] = 1.0
    return UnitaryRep(group, mats)


@functools.lru_cache(maxsize=256)
def eta(omega: UnitaryRep, h: Subgroup) -> int:
    """Multiplicity of the trivial representation in ``omega`` restricted to h.

    By Frobenius reciprocity this equals the multiplicity of ``omega`` in the
    right-regular representation on H\\G; both are computed and compared.
    Memoized per (omega, h), for the last 256 pairs, so the comparison runs
    on the first computation only; ``omega`` is keyed by identity, as the
    memoized ``irreps`` hand out the same representations.
    """
    chi = omega.character()
    via_restriction = _snap_integer(
        complex(np.mean(chi[np.array(h.members)])), "eta"
    )
    via_induction = multiplicity(omega, right_regular(omega.group, h))
    if via_restriction != via_induction:
        raise NonIntegerMultiplicity(
            f"reciprocity mismatch: {via_restriction} != {via_induction}"
        )
    return via_restriction


def regular_representation(group: FiniteGroup) -> UnitaryRep:
    return right_regular(group, trivial_subgroup(group))
