#!/usr/bin/env python3
"""Sign map of the order-3 determinant on the built-in witness node pair as q
varies: shows the parameter stretch where the kernel provably increases
oscillation (both configurations significant, opposite signs).

Example:
  python scripts/cvd_sign_map.py --beta 0 --q-min 0.05 --q-max 0.6 --steps 23
"""

import argparse

from neumann_widths import NeumannParams, builtin_witnesses, det_D, neumann_evaluator


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--beta", type=float, default=0.0)
    ap.add_argument("--q-min", type=float, default=0.05)
    ap.add_argument("--q-max", type=float, default=0.60)
    ap.add_argument("--steps", type=int, default=23)
    args = ap.parse_args()

    neg_nodes, pos_nodes = builtin_witnesses()
    print(f"{'q':>6} {'D3(neg nodes)':>16} {'D3(pos nodes)':>16} {'sign change':>12}")
    for i in range(args.steps):
        q = args.q_min + (args.q_max - args.q_min) * i / (args.steps - 1)
        kernel = neumann_evaluator(NeumannParams(q, args.beta))
        r_neg = det_D(kernel, neg_nodes)
        r_pos = det_D(kernel, pos_nodes)
        flips = (r_neg.significant and r_pos.significant
                 and r_neg.value * r_pos.value < 0.0)
        print(f"{q:>6.3f} {r_neg.value:>16.3e} {r_pos.value:>16.3e} {str(flips):>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
