#!/usr/bin/env python3
"""Audit analytic gradients of the marginal NLL against central finite
differences on random micro-instances, parameter by parameter."""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import max_fd_relative_error, tiny_world


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--h", type=float, default=1e-5)
    args = ap.parse_args()

    start = time.time()
    worst = 0.0
    for seed in range(args.instances):
        w = tiny_world(seed=9000 + seed, min_kink_gap=1e-3)
        worst = max(worst, max_fd_relative_error(w.model, w.prep, args.h))
    print("instances=%d max_relative_error=%.3e elapsed=%.1fs"
          % (args.instances, worst, time.time() - start))
    sys.exit(0 if worst < 1e-4 else 1)


if __name__ == "__main__":
    main()
