import numpy as np
import pytest

from goalchase.analysis import pad_witness, permutation_witness
from goalchase.bridge import (
    AFFINE1,
    AFFINE2,
    KINDS,
    MLP1H,
    BridgeFamily,
    ShapeError,
    eval_bridge,
    grad_args,
    grad_bridge,
)


def fd_grad_params(family, params, args, cot, h=1e-5):
    """Independent central-difference gradient for cot . eval_bridge."""
    g = np.zeros_like(params)
    for j in range(len(params)):
        hi = params.copy()
        hi[j] += h
        lo = params.copy()
        lo[j] -= h
        g[j] = (
            cot @ eval_bridge(family, hi, args)
            - cot @ eval_bridge(family, lo, args)
        ) / (2 * h)
    return g


def fd_grad_arg(family, params, args, k, cot, h=1e-5):
    g = np.zeros_like(args[k])
    for j in range(len(args[k])):
        hi = [a.copy() for a in args]
        hi[k][j] += h
        lo = [a.copy() for a in args]
        lo[k][j] -= h
        g[j] = (
            cot @ eval_bridge(family, params, hi)
            - cot @ eval_bridge(family, params, lo)
        ) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) if denom < 1e-6 else abs(a - b) / denom


def test_param_counts():
    assert BridgeFamily(AFFINE1, m=2).param_count == 6
    assert BridgeFamily(AFFINE2, m=3).param_count == 21
    assert BridgeFamily(MLP1H, m=2, hidden=3).param_count == 17
    assert BridgeFamily(AFFINE1, m=2, pad=2).param_count == 8


def test_arity():
    assert BridgeFamily(AFFINE1, m=2).arity == 1
    assert BridgeFamily(AFFINE2, m=2).arity == 2
    assert BridgeFamily(MLP1H, m=2, hidden=1).arity == 1


def test_affine1_swap_example():
    fam = BridgeFamily(AFFINE1, m=2)
    params = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    out = eval_bridge(fam, params, [np.array([1.0, 2.0])])
    assert np.array_equal(out, np.array([2.0, 1.0]))


def test_affine1_identity():
    fam = BridgeFamily(AFFINE1, m=3)
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    u = np.array([0.3, -1.2, 7.0])
    assert np.array_equal(eval_bridge(fam, params, [u]), u)


def test_affine2_sum_example():
    fam = BridgeFamily(AFFINE2, m=2)
    params = np.concatenate([np.eye(2).ravel(), np.eye(2).ravel(), np.zeros(2)])
    out = eval_bridge(
        fam, params, [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    )
    assert np.array_equal(out, np.array([1.0, 1.0]))


def test_mlp1h_hand_value():
    import math

    fam = BridgeFamily(MLP1H, m=1, hidden=1)
    # y = w2 * tanh(w1 u + b1) + b2
    params = np.array([2.0, 0.5, 3.0, -1.0])
    out = eval_bridge(fam, params, [np.array([0.25])])
    assert out.shape == (1,)
    assert abs(out[0] - (3.0 * math.tanh(1.0) - 1.0)) < 1e-15


def test_pad_is_ignored_exactly():
    fam = BridgeFamily(AFFINE1, m=2, pad=3)
    gen = np.random.Generator(np.random.PCG64(5))
    params = gen.uniform(-1, 1, fam.param_count)
    other = params.copy()
    other[-3:] = 99.0
    u = gen.uniform(-1, 1, 2)
    assert np.array_equal(
        eval_bridge(fam, params, [u]), eval_bridge(fam, other, [u])
    )


def test_mlp_row_major_packing():
    # one asymmetric weight matrix pins the packing order
    fam = BridgeFamily(MLP1H, m=2, hidden=1)
    # W1 = [[1, 0]], b1 = [0], W2 = [[0], [2]], b2 = [0, 0]
    params = np.array([1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    out = eval_bridge(fam, params, [np.array([0.5, 9.0])])
    assert np.allclose(out, [0.0, 2.0 * np.tanh(0.5)])


def test_shape_errors():
    # parameters are checked where they enter, in the witnesses, and not on
    # every eval_bridge/grad_bridge call
    mlp = BridgeFamily(MLP1H, m=2, hidden=3)
    for n in (5, 18):
        with pytest.raises(ShapeError, match="mlp1h.* expects 17 parameters"):
            permutation_witness(mlp, np.zeros(n), [1, 0, 2])
    padded = BridgeFamily(AFFINE1, m=2, pad=2)
    for n in (5, 9):
        with pytest.raises(ShapeError, match="affine1.* expects 8 parameters"):
            pad_witness(padded, np.zeros(n))


def test_grad_zero_cotangent():
    fam = BridgeFamily(AFFINE2, m=2)
    gen = np.random.Generator(np.random.PCG64(0))
    params = gen.uniform(-1, 1, fam.param_count)
    args = [gen.uniform(-1, 1, 2), gen.uniform(-1, 1, 2)]
    gp = grad_bridge(fam, params, args, np.zeros(2))
    gargs = grad_args(fam, params, args, np.zeros(2))
    assert np.array_equal(gp, np.zeros_like(params))
    assert all(np.array_equal(g, np.zeros(2)) for g in gargs)


def test_grad_identity_matrix_passes_cotangent():
    fam = BridgeFamily(AFFINE1, m=3)
    params = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    cot = np.array([0.3, -0.7, 2.0])
    gargs = grad_args(fam, params, [np.zeros(3)], cot)
    assert np.array_equal(gargs[0], cot)


def test_grad_pad_entries_exactly_zero():
    fam = BridgeFamily(MLP1H, m=2, hidden=2, pad=4)
    gen = np.random.Generator(np.random.PCG64(3))
    params = gen.uniform(-1, 1, fam.param_count)
    gp = grad_bridge(fam, params, [gen.uniform(-1, 1, 2)], np.ones(2))
    assert np.array_equal(gp[-4:], np.zeros(4))


@pytest.mark.parametrize(
    "fam",
    [
        BridgeFamily(AFFINE1, m=2),
        BridgeFamily(AFFINE1, m=3, pad=2),
        BridgeFamily(AFFINE2, m=2),
        BridgeFamily(AFFINE2, m=3, pad=1),
        BridgeFamily(MLP1H, m=2, hidden=3),
        BridgeFamily(MLP1H, m=3, hidden=2, pad=3),
    ],
    ids=lambda f: f"{f.kind}-m{f.m}-h{f.hidden}-p{f.pad}",
)
def test_grad_matches_finite_differences(fam):
    gen = np.random.Generator(np.random.PCG64(11))
    samples = 100
    for _ in range(samples):
        params = gen.uniform(-1, 1, fam.param_count)
        args = [gen.uniform(-1, 1, fam.m) for _ in range(fam.arity)]
        cot = gen.uniform(-1, 1, fam.m)
        gp = grad_bridge(fam, params, args, cot)
        gargs = grad_args(fam, params, args, cot)
        fp = fd_grad_params(fam, params, args, cot)
        for a, b in zip(gp, fp):
            assert rel_err(a, b) < 1e-6
        for k in range(fam.arity):
            fa = fd_grad_arg(fam, params, args, k, cot)
            for a, b in zip(gargs[k], fa):
                assert rel_err(a, b) < 1e-6


def test_permutation_invariance_at_bridge_level():
    fam = BridgeFamily(MLP1H, m=2, hidden=3)
    gen = np.random.Generator(np.random.PCG64(21))
    params = gen.uniform(-1, 1, fam.param_count)
    perm = [2, 0, 1]
    h, m = 3, 2
    other = params.copy()
    W1 = params[: h * m].reshape(h, m)
    b1 = params[h * m : h * m + h]
    W2 = params[h * m + h : h * m + h + m * h].reshape(m, h)
    other[: h * m] = W1[perm, :].ravel()
    other[h * m : h * m + h] = b1[perm]
    other[h * m + h : h * m + h + m * h] = W2[:, perm].ravel()
    assert not np.array_equal(params, other)
    for _ in range(50):
        d = gen.uniform(-1, 1, m)
        ya = eval_bridge(fam, params, [d])
        yb = eval_bridge(fam, other, [d])
        assert np.max(np.abs(ya - yb)) <= 1e-12


def test_family_validation():
    with pytest.raises(ValueError):
        BridgeFamily("poly", m=2)
    with pytest.raises(ValueError):
        BridgeFamily(AFFINE1, m=0)
    with pytest.raises(ValueError):
        BridgeFamily(MLP1H, m=2, hidden=0)
    with pytest.raises(ValueError):
        BridgeFamily(AFFINE1, m=2, pad=-1)
    with pytest.raises(ValueError):
        BridgeFamily(AFFINE1, m=2, hidden=3)


def test_family_json_round_trip():
    fam = BridgeFamily(MLP1H, m=3, hidden=4, pad=2)
    assert BridgeFamily.from_json(fam.to_json()) == fam
    # the kind implies the arity, so "arity" is an unknown key, even when 1
    with pytest.raises(ValueError, match="unknown slot keys"):
        BridgeFamily.from_json({"kind": "affine1", "m": 2, "arity": 1})
    with pytest.raises(ValueError):
        BridgeFamily.from_json({"kind": "affine1", "m": 2, "bogus": 1})


# The kernels as first written, on (M @ X[..., None])[..., 0], with each
# parameter gradient concatenated from its blocks: every reshaping of the
# arithmetic must reproduce them byte for byte, since the oracle tests call
# the same kernels and cannot see such a change.
def _mv(M, X):
    return (M @ X[..., None])[..., 0]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _pack(fam, *blocks):
    """Concatenate `blocks` (layout order, pad excluded; the last one a
    vector) and a zero pad, if any, along the last axis, row by row."""
    lead = blocks[-1].shape[:-1]
    pad = [np.zeros(lead + (fam.pad,))] if fam.pad else []
    return np.concatenate([b.reshape(lead + (-1,)) for b in blocks] + pad, axis=-1)


def _matmul_eval(fam, params, args):
    blocks = fam.blocks(params)
    if fam.kind == AFFINE1:
        return _mv(blocks[0], args[0]) + blocks[1], None
    if fam.kind == AFFINE2:
        return _mv(blocks[0], args[0]) + _mv(blocks[1], args[1]) + blocks[2], None
    W1, b1, W2, b2, _ = blocks
    act = np.tanh(_mv(W1, args[0]) + b1)
    return _mv(W2, act) + b2, act


def _matmul_grads(fam, params, args, cot):
    """(parameter gradient, argument gradients) of cot . eval_bridge."""
    blocks = fam.blocks(params)
    if fam.kind != MLP1H:
        return (_pack(fam, *[_outer(cot, a) for a in args], cot),
                [_mv(M.T, cot) for M in blocks[:fam.arity]])
    W1, b1, W2, _, _ = blocks
    act = np.tanh(_mv(W1, args[0]) + b1)
    dz = _mv(W2.T, cot) * (1.0 - act * act)
    return _pack(fam, _outer(dz, args[0]), dz, _outer(cot, act), cot), [_mv(W1.T, dz)]


def _same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [AFFINE1, AFFINE2, MLP1H])
@pytest.mark.parametrize("pad", [0, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernels_match_the_matmul_form_byte_for_byte(kind, pad, m):
    fam = BridgeFamily(kind, m=m, hidden=4 if kind == MLP1H else 0, pad=pad)
    gen = np.random.Generator(np.random.PCG64(100 * m + 10 * pad + KINDS.index(kind)))
    signed_zeros = 0
    for batch in [(), (1,), (4,), (2, 3)]:
        for _ in range(10):
            params = gen.uniform(-2, 2, fam.param_count)
            args = [gen.uniform(-2, 2, batch + (m,)) for _ in range(fam.arity)]
            cot = gen.uniform(-2, 2, batch + (m,))
            # exact zeros of both signs in the cotangent
            cot = np.where(gen.random(cot.shape) < 0.3, 0.0, cot)
            cot = np.where(gen.random(cot.shape) < 0.3, -0.0, cot)
            signed_zeros += np.signbit(cot[cot == 0]).any()
            value, act = _matmul_eval(fam, params, args)
            _same_bytes(eval_bridge(fam, params, args), value)
            got, got_act = eval_bridge(fam, params, args, keep=True)
            _same_bytes(got, value)
            assert (got_act is None) == (act is None)
            if act is not None:
                _same_bytes(got_act, act)
            gp, gargs = _matmul_grads(fam, params, args, cot)
            for kept in (None, got_act):
                _same_bytes(grad_bridge(fam, params, args, cot, kept), gp)
                got_args = grad_args(fam, params, args, cot, kept)
                assert len(got_args) == fam.arity
                for g, want in zip(got_args, gargs):
                    _same_bytes(g, want)
            if act is not None:
                # with `act` at hand, grad_args needs no arguments
                for g, want in zip(grad_args(fam, params, (), cot, act), gargs):
                    _same_bytes(g, want)
    assert signed_zeros > 0

