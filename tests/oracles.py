"""Brute-force oracles the suites share: nested loops, no vectorised tricks.

Each is the one reference for its job: a direct convolution, max and average
pooling, and the closed-form DenseNet parameter total.
"""

import numpy as np


def conv2d_ref(x, w, stride=1, padding=0):
    """Direct convolution by summation. O(N*O*C*H2*W2*kh*kw), trusted slow path."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h2 = (h + 2 * padding - kh) // stride + 1
    w2 = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(h2):
                for xi in range(w2):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, yi * stride + ky, xi * stride + kx] * w[oi, ci, ky, kx]
                    out[ni, oi, yi, xi] = acc
    return out


def maxpool_ref(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    h2 = (h + 2 * padding - kernel) // stride + 1
    w2 = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(h2):
                for xi in range(w2):
                    win = xp[ni, ci, yi * stride:yi * stride + kernel, xi * stride:xi * stride + kernel]
                    out[ni, ci, yi, xi] = win.max()
    return out


def avgpool_ref(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h2 = (h + 2 * padding - kernel) // stride + 1
    w2 = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, h2, w2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(h2):
                for xi in range(w2):
                    win = xp[ni, ci, yi * stride:yi * stride + kernel, xi * stride:xi * stride + kernel]
                    out[ni, ci, yi, xi] = win.sum() / (kernel * kernel)
    return out


def param_count_ref(blocks, growth, init_c, bottleneck, compression, in_ch, n_out):
    """Analytic parameter total: convs have no bias, BN has gamma+beta, FC has bias."""
    total = in_ch * init_c * 7 * 7 + 2 * init_c   # stem conv + stem bn
    c = init_c
    for bi, layers in enumerate(blocks):
        for _ in range(layers):
            mid = bottleneck * growth
            total += 2 * c              # bn1
            total += c * mid            # 1x1 conv
            total += 2 * mid            # bn2
            total += mid * growth * 9   # 3x3 conv
            c += growth
        if bi < 3:
            out = int(c * compression)
            total += 2 * c + c * out    # transition bn + 1x1 conv
            c = out
    total += 2 * c                      # final bn
    total += c * n_out + n_out          # head
    return total
