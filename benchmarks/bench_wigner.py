#!/usr/bin/env python3
"""Benchmark the batched little-group kernel: compiled extension vs the
NumPy kernel in relqinfo.lorentz, across grid sizes typical for packet work.

Usage: python benchmarks/bench_wigner.py [--repeats 5]
"""
import argparse
import time

import numpy as np

from relqinfo import kernels, lorentz
from relqinfo.lorentz import wigner_su2_batch as numpy_kernel

try:
    from relqinfo._wigner_cy import wigner_su2_batch as compiled_kernel
except ImportError:
    compiled_kernel = None


def make_grid(n, m, seed=0):
    rng = np.random.default_rng(seed)
    pvec = rng.normal(scale=0.5, size=(n, 3))
    e = np.sqrt(m * m + np.sum(pvec**2, axis=1))
    return np.column_stack([e, pvec])


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    m = 1.0
    lam = lorentz.compose(lorentz.boost([0.6, 0.0, 0.5]),
                          lorentz.rotation([1.0, 2.0, 0.5], 0.8)).matrix
    print(f"active backend: {kernels.backend_name()}")
    header = f"{'points':>9} {'numpy [ms]':>12}"
    if compiled_kernel is not None:
        header += f" {'compiled [ms]':>14} {'speedup':>8}"
    print(header)

    for n in (1_000, 3_375, 9_261, 100_000, 1_000_000):
        grid = make_grid(n, m)
        t_np = best_of(lambda: numpy_kernel(lam, grid, m), args.repeats)
        line = f"{n:>9} {t_np * 1e3:>12.2f}"
        if compiled_kernel is not None:
            t_cy = best_of(lambda: compiled_kernel(lam, grid, m), args.repeats)
            line += f" {t_cy * 1e3:>14.2f} {t_np / t_cy:>8.2f}"
            q1, d1 = numpy_kernel(lam, grid, m)
            q2, d2 = compiled_kernel(lam, grid, m)
            assert np.abs(q1 - q2).max() < 1e-12
            assert np.abs(d1 - d2).max() < 1e-12
        print(line)


if __name__ == "__main__":
    main()
