"""Parameter-to-function families.

A family interprets a flat parameter vector as a concrete map on R^m.
Three families are provided: affine1 (A u + b), affine2 (A u + B v + c)
and mlp1h (W2 tanh(W1 u + b1) + b2).  Matrices are packed row-major, in
the block order of `_LAYOUTS`, the one statement of each packing.
Every family accepts `pad` trailing parameters that the map ignores, so
distinct parameter vectors can realize the same function.

The kernels `eval_bridge`, `grad_bridge` (the parameter gradient of a
cotangent, from one row builder for every family) and `grad_args` (its
argument gradients) take arrays of shape (..., m) whose leading axes are a
batch, a single vector being the unbatched case; every matrix-vector
product is one `np.matvec`, so each row comes out bit for bit as it would
alone.  `eval_bridge` can keep mlp1h's activation tanh(W1 u + b1) for the
gradient kernels' `act`, and `grad_args` reads its `args` only to
recompute a missing `act`.  They check nothing: `config_from_json`
validates each slot's layout, and the witnesses in `analysis` raise
`ShapeError` for a vector of the wrong length.
"""

from __future__ import annotations

import math
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
    "grad_args",
]

# block shapes of each packed layout, given (m, hidden); the pad tail follows
_LAYOUTS = {
    AFFINE1: lambda m, h: [(m, m), (m,)],
    AFFINE2: lambda m, h: [(m, m), (m, m), (m,)],
    MLP1H: lambda m, h: [(h, m), (h,), (m, h), (m,)],
}


class ShapeError(ValueError):
    """A parameter vector's length disagrees with its family's layout."""


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
        # (start, stop, matrix shape or None) per block, the pad tail last
        table, start = [], 0
        for shape in _LAYOUTS[self.kind](self.m, self.hidden) + [(self.pad,)]:
            stop = start + math.prod(shape)
            table.append((start, stop, shape if len(shape) == 2 else None))
            start = stop
        object.__setattr__(self, "_blocks", tuple(table))
        object.__setattr__(self, "_last", (None, None))

    @property
    def arity(self) -> int:
        return 2 if self.kind == AFFINE2 else 1

    @property
    def param_count(self) -> int:
        return self._blocks[-1][1]

    def blocks(self, params) -> tuple:
        """Writable views of the blocks of `params`, in layout order, pad last."""
        last = self._last  # (params, views) of the latest call
        if last[0] is not params:
            last = (params, tuple(params[i:j] if shape is None else
                                  params[i:j].reshape(shape)
                                  for i, j, shape in self._blocks))
            object.__setattr__(self, "_last", last)
        return last[1]

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "m": self.m}
        if self.kind == MLP1H:
            obj["hidden"] = self.hidden
        if self.pad:
            obj["pad"] = self.pad
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "BridgeFamily":
        extra = set(obj) - {"kind", "m", "hidden", "pad"}
        if extra:
            raise ValueError(f"unknown slot keys {sorted(extra)}")
        return cls(**{"kind": "", "m": 0, **obj})


def eval_bridge(family: BridgeFamily, params, args, keep=False):
    """Apply the map encoded by `params` to the argument vectors.  With
    `keep`, return (value, act): mlp1h's hidden activation, else None."""
    act = None
    if family.kind == AFFINE1:
        A, b, _ = family.blocks(params)
        value = np.matvec(A, args[0]) + b
    elif family.kind == AFFINE2:
        A, B, c, _ = family.blocks(params)
        value = np.matvec(A, args[0]) + np.matvec(B, args[1]) + c
    else:
        W1, b1, W2, b2, _ = family.blocks(params)
        act = np.tanh(np.matvec(W1, args[0]) + b1)
        value = np.matvec(W2, act) + b2
    return (value, act) if keep else value


def grad_bridge(family: BridgeFamily, params, args, cot, act=None) -> np.ndarray:
    """The parameter gradient of `cot . eval_bridge`, shape (...,
    param_count), written block by block into one zeroed array, so pad
    entries are exactly zero; `act` is the activation `eval_bridge` kept
    at `args`, if at hand."""
    if family.kind == AFFINE1:
        parts = ((cot, args[0]), cot)
    elif family.kind == AFFINE2:
        parts = ((cot, args[0]), (cot, args[1]), cot)
    else:
        act, dz = _mlp1h_back(family, params, args, cot, act)
        parts = ((dz, args[0]), dz, (cot, act), cot)
    lead = cot.shape[:-1]
    rows = np.zeros(lead + (family.param_count,))
    for (i, j, shape), part in zip(family._blocks, parts):
        if shape is None:
            rows[..., i:j] = part
        else:
            np.multiply(part[0][..., :, None], part[1][..., None, :],
                        out=rows[..., i:j].reshape(lead + shape))
    return rows


def grad_args(family: BridgeFamily, params, args, cot, act=None) -> list[np.ndarray]:
    """The gradients of `cot . eval_bridge` wrt each argument; `act` as
    for `grad_bridge`.  `args` is read only for mlp1h with `act` None."""
    if family.kind == AFFINE1:
        return [np.matvec(family.blocks(params)[0].T, cot)]
    if family.kind == AFFINE2:
        A, B, _, _ = family.blocks(params)
        return [np.matvec(A.T, cot), np.matvec(B.T, cot)]
    _, dz = _mlp1h_back(family, params, args, cot, act)
    return [np.matvec(family.blocks(params)[0].T, dz)]


def _mlp1h_back(family: BridgeFamily, params, args, cot, act):
    """(act, dz): the hidden activation, computed when `act` is None, and
    the cotangent at its input."""
    W1, b1, W2, _, _ = family.blocks(params)
    if act is None:
        act = np.tanh(np.matvec(W1, args[0]) + b1)
    return act, np.matvec(W2.T, cot) * (1.0 - act * act)
