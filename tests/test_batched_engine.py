"""The batched engine against the single-vector computation it replaces.

The kernels take leading batch axes and every row of a batch must come
out bit for bit as the same row computed alone.  The tape runs all probes
as one batch and sums each slot's gradient rows in sequential order
(probe-major, then one row per op, in the order of its first Apply in a
walk of the sides, pair by pair, left before right), so `loss_gradients`
must equal the per-probe DAG walk of `dag_loss_gradients` exactly.
"""

import numpy as np
import pytest

from goalchase.bridge import (AFFINE1, AFFINE2, MLP1H, BridgeFamily, eval_bridge,
                              grad_args, grad_bridge)
from goalchase.expr import EquationPairList
from goalchase.feedback import compile_pairs, loss, loss_gradients

from test_expr_oracle import (assert_close, dag_loss_gradients, eval_expr,
                              oracle_loss_gradients)


@pytest.mark.parametrize("pad", [0, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", [AFFINE1, AFFINE2, MLP1H])
def test_batched_kernels_equal_row_by_row_calls(kind, m, pad):
    fam = BridgeFamily(kind, m=m, hidden=3 if kind == MLP1H else 0, pad=pad)
    gen = np.random.Generator(np.random.PCG64(1000 * m + pad))
    for batch in [(7,), (3, 5)]:
        params = gen.uniform(-2, 2, fam.param_count)
        args = [gen.uniform(-3, 3, batch + (m,)) for _ in range(fam.arity)]
        cot = gen.uniform(-3, 3, batch + (m,))
        value = eval_bridge(fam, params, args)
        gp = grad_bridge(fam, params, args, cot)
        gargs = only_args = grad_args(fam, params, args, cot)
        assert gp.shape == batch + (fam.param_count,)
        for idx in np.ndindex(*batch):
            row = [a[idx] for a in args]
            assert np.array_equal(value[idx], eval_bridge(fam, params, row))
            gp1 = grad_bridge(fam, params, row, cot[idx])
            gargs1 = grad_args(fam, params, row, cot[idx])
            assert np.array_equal(gp[idx], gp1)
            for batched, alone, arg_only in zip(gargs, gargs1, only_args):
                assert np.array_equal(batched[idx], alone)
                assert np.array_equal(arg_only[idx], alone)


def test_loss_gradients_sum_rows_in_sequential_order():
    # m = 1 slots with many probes: a pairwise sum of the gradient rows, or
    # an op-major order, changes low bits that the sequential walk fixes
    families = [
        BridgeFamily(AFFINE1, m=1),
        BridgeFamily(AFFINE2, m=1, pad=1),
        BridgeFamily(MLP1H, m=1, hidden=2),
    ]
    cpair = EquationPairList.from_json([
        ["[0,2,0,1,(0,[2,0])]", "[2,0,2,1,([0,0],2),0]"],
        ["[1,([0,2],[2,1,(0,0)]),2]", "[0,0,2]"],
    ])
    gen = np.random.Generator(np.random.PCG64(5))
    trees = compile_pairs(cpair, families)
    for _ in range(20):
        slots = [gen.uniform(-1, 1, f.param_count) for f in families]
        probes = [gen.uniform(-1, 1, 1) for _ in range(int(gen.integers(9, 40)))]
        got = loss_gradients(cpair, families, slots, probes)
        for g, e in zip(got, dag_loss_gradients(trees, families, slots, probes)):
            assert np.array_equal(g, e)
        assert_close(got, oracle_loss_gradients(trees, families, slots, probes))
        expected_loss = 0.0
        for d in probes:
            for tl, tr in trees:
                er = (eval_expr(tl, families, slots, d)
                      - eval_expr(tr, families, slots, d))
                expected_loss += float(er @ er)
        assert loss(cpair, families, slots, probes) == expected_loss / len(probes)
