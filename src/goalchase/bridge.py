"""Parameter-to-function families.

A family interprets a flat parameter vector as a concrete map on R^m.
Three families are provided: affine1 (A u + b), affine2 (A u + B v + c)
and mlp1h (W2 tanh(W1 u + b1) + b2).  Matrices are packed row-major.
Every family accepts `pad` trailing parameters that the map ignores, so
distinct parameter vectors can realize the same function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AFFINE1 = "affine1"
AFFINE2 = "affine2"
MLP1H = "mlp1h"
KINDS = (AFFINE1, AFFINE2, MLP1H)

__all__ = [
    "AFFINE1",
    "AFFINE2",
    "MLP1H",
    "KINDS",
    "BridgeFamily",
    "ShapeError",
    "eval_bridge",
    "grad_bridge",
]


class ShapeError(ValueError):
    """Parameter or argument shapes disagree with the family layout."""


@dataclass(frozen=True)
class BridgeFamily:
    """Interpretation rule turning a parameter vector into a map R^m -> R^m.

    kind    one of "affine1", "affine2", "mlp1h"
    m       input/output dimension
    hidden  hidden width (mlp1h only)
    pad     number of trailing ignored parameters
    """

    kind: str
    m: int
    hidden: int = 0
    pad: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.kind == MLP1H and self.hidden < 1:
            raise ValueError(f"mlp1h needs hidden >= 1, got {self.hidden}")
        if self.kind != MLP1H and self.hidden != 0:
            raise ValueError(f"hidden is only meaningful for mlp1h")
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")

    @property
    def arity(self) -> int:
        return 2 if self.kind == AFFINE2 else 1

    @property
    def param_count(self) -> int:
        m, h = self.m, self.hidden
        if self.kind == AFFINE1:
            return m * m + m + self.pad
        if self.kind == AFFINE2:
            return 2 * m * m + m + self.pad
        return h * m + h + m * h + m + self.pad

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "m": self.m}
        if self.kind == MLP1H:
            obj["hidden"] = self.hidden
        if self.pad:
            obj["pad"] = self.pad
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "BridgeFamily":
        known = {"kind", "m", "arity", "hidden", "pad"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown slot keys {sorted(extra)}")
        fam = cls(
            kind=obj.get("kind", ""),
            m=obj.get("m", 0),
            hidden=obj.get("hidden", 0),
            pad=obj.get("pad", 0),
        )
        if "arity" in obj and obj["arity"] != fam.arity:
            raise ValueError(
                f"arity {obj['arity']} inconsistent with kind {fam.kind!r}"
            )
        return fam


def _check(family: BridgeFamily, params, args) -> tuple[np.ndarray, list[np.ndarray]]:
    params = np.asarray(params, dtype=float)
    if params.shape != (family.param_count,):
        raise ShapeError(
            f"{family.kind} expects {family.param_count} parameters, "
            f"got shape {params.shape}"
        )
    if len(args) != family.arity:
        raise ShapeError(
            f"{family.kind} takes {family.arity} argument(s), got {len(args)}"
        )
    vecs = []
    for k, a in enumerate(args):
        a = np.asarray(a, dtype=float)
        if a.shape != (family.m,):
            raise ShapeError(
                f"{family.kind} argument {k} expects shape ({family.m},), "
                f"got {a.shape}"
            )
        vecs.append(a)
    return params, vecs


def eval_bridge(family: BridgeFamily, params, args) -> np.ndarray:
    """Apply the map encoded by `params` to the argument vectors."""
    params, args = _check(family, params, args)
    m, h = family.m, family.hidden
    if family.kind == AFFINE1:
        A = params[: m * m].reshape(m, m)
        b = params[m * m : m * m + m]
        return A @ args[0] + b
    if family.kind == AFFINE2:
        mm = m * m
        A = params[:mm].reshape(m, m)
        B = params[mm : 2 * mm].reshape(m, m)
        c = params[2 * mm : 2 * mm + m]
        return A @ args[0] + B @ args[1] + c
    hm = h * m
    W1 = params[:hm].reshape(h, m)
    b1 = params[hm : hm + h]
    W2 = params[hm + h : hm + h + m * h].reshape(m, h)
    b2 = params[hm + h + m * h : hm + h + m * h + m]
    return W2 @ np.tanh(W1 @ args[0] + b1) + b2


def grad_bridge(
    family: BridgeFamily, params, args, cotangent
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vector-Jacobian products of `cotangent . eval_bridge`.

    Returns (grad wrt params, [grad wrt each argument]).  Gradient entries
    for pad parameters are exactly zero.
    """
    params, args = _check(family, params, args)
    cot = np.asarray(cotangent, dtype=float)
    if cot.shape != (family.m,):
        raise ShapeError(f"cotangent expects shape ({family.m},), got {cot.shape}")
    m, h = family.m, family.hidden
    gp = np.zeros_like(params)
    if family.kind == AFFINE1:
        A = params[: m * m].reshape(m, m)
        gp[: m * m] = np.outer(cot, args[0]).ravel()
        gp[m * m : m * m + m] = cot
        return gp, [A.T @ cot]
    if family.kind == AFFINE2:
        mm = m * m
        A = params[:mm].reshape(m, m)
        B = params[mm : 2 * mm].reshape(m, m)
        gp[:mm] = np.outer(cot, args[0]).ravel()
        gp[mm : 2 * mm] = np.outer(cot, args[1]).ravel()
        gp[2 * mm : 2 * mm + m] = cot
        return gp, [A.T @ cot, B.T @ cot]
    hm = h * m
    W1 = params[:hm].reshape(h, m)
    b1 = params[hm : hm + h]
    W2 = params[hm + h : hm + h + m * h].reshape(m, h)
    act = np.tanh(W1 @ args[0] + b1)
    dact = W2.T @ cot
    dz = dact * (1.0 - act * act)
    gp[:hm] = np.outer(dz, args[0]).ravel()
    gp[hm : hm + h] = dz
    gp[hm + h : hm + h + m * h] = np.outer(cot, act).ravel()
    gp[hm + h + m * h : hm + h + m * h + m] = cot
    return gp, [W1.T @ dz]
