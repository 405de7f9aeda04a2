#!/usr/bin/env python3
"""Audit analytic gradients of the marginal NLL against central finite
differences on random micro-instances, parameter by parameter."""

import argparse
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np

from convlink.config import GRANULARITIES
from convlink.model import loss_and_grad, score_pairs
from helpers import tiny_world


def loss_only(model, prep):
    S = score_pairs(model, prep).S
    m = S.max()
    lse_all = m + math.log(np.exp(S - m).sum())
    row = S[prep.gold_index]
    mr = row.max()
    return lse_all - (mr + math.log(np.exp(row - mr).sum()))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--h", type=float, default=1e-5)
    args = ap.parse_args()

    start = time.time()
    worst = 0.0
    for seed in range(args.instances):
        w = tiny_world(seed=9000 + seed, min_kink_gap=1e-3)
        model, prep = w.model, w.prep
        _, grads = loss_and_grad(model, prep)

        def check(est, an):
            nonlocal worst
            rel = abs(est - an) / max(abs(est), abs(an), 1e-6)
            worst = max(worst, rel)

        h = args.h
        for i in range(6):
            orig = model.w_dense[i]
            model.w_dense[i] = orig + h
            up = loss_only(model, prep)
            model.w_dense[i] = orig - h
            dn = loss_only(model, prep)
            model.w_dense[i] = orig
            check((up - dn) / (2 * h), grads.dense[i])
        for idx in list(model.w_sparse):
            orig = model.w_sparse[idx]
            model.w_sparse[idx] = orig + h
            up = loss_only(model, prep)
            model.w_sparse[idx] = orig - h
            dn = loss_only(model, prep)
            model.w_sparse[idx] = orig
            check((up - dn) / (2 * h), grads.sparse.get(idx, 0.0))
        for g in GRANULARITIES:
            M = model.cnn_params.banks[g].M
            for r in range(M.shape[0]):
                for c in range(M.shape[1]):
                    orig = M[r, c]
                    M[r, c] = orig + h
                    up = loss_only(model, prep)
                    M[r, c] = orig - h
                    dn = loss_only(model, prep)
                    M[r, c] = orig
                    check((up - dn) / (2 * h), grads.banks[g][r, c])
    print("instances=%d max_relative_error=%.3e elapsed=%.1fs"
          % (args.instances, worst, time.time() - start))
    sys.exit(0 if worst < 1e-4 else 1)


if __name__ == "__main__":
    main()
