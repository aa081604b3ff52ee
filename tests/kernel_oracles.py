"""Reference oracles for the standard training kernels.

Textbook formulations of the kernels in ``repro.nn.functional``, kept for
tests only: an NCHW slice-loop im2col/col2im, the weight gradients as
``np.einsum(..., optimize=True)`` contractions, argmax max-pool routing
and a broadcast-column average-pool backward.  The production kernels
must equal these bit for bit (``np.array_equal``); ``ORACLES`` maps each
public kernel name to its oracle so a test can monkeypatch the whole set
into ``repro.nn.functional`` and compare complete training runs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_out_size


def im2col(x, kernel, stride, pad, pad_value=0.0):
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    if pad > 0:
        xp = np.full((n, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, ki, kj] = xp[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ]
    return cols.reshape(n, c * kernel * kernel, oh * ow)


def col2im(cols, x_shape, kernel, stride, pad):
    n, c, h, w = x_shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kernel, kernel, oh, ow)
    for ki in range(kernel):
        for kj in range(kernel):
            x[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ] += cols6[:, :, ki, kj]
    return x[:, :, pad : pad + h, pad : pad + w]


def conv2d_forward(x, weight, stride, pad):
    n, _, h, w = x.shape
    k, _, r, _ = weight.shape
    cols = im2col(x, r, stride, pad)
    out = np.matmul(weight.reshape(k, -1), cols)
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    return out.reshape(n, k, oh, ow), (cols, x.shape, weight, stride, pad)


def conv2d_backward(grad_out, cache):
    cols, x_shape, weight, stride, pad = cache
    k, r = weight.shape[0], weight.shape[2]
    g = grad_out.reshape(grad_out.shape[0], k, -1)
    grad_w = np.einsum("nkp,ncp->kc", g, cols, optimize=True).reshape(weight.shape)
    grad_cols = np.matmul(weight.reshape(k, -1).T, g)
    return col2im(grad_cols, x_shape, r, stride, pad), grad_w


def depthwise_conv2d_forward(x, weight, stride, pad):
    n, c, h, w = x.shape
    r = weight.shape[1]
    cols = im2col(x, r, stride, pad)
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    cols4 = cols.reshape(n, c, r * r, -1)
    out = np.einsum("nckp,ck->ncp", cols4, weight.reshape(c, r * r), optimize=True)
    return out.reshape(n, c, oh, ow), (cols, x.shape, weight, stride, pad)


def depthwise_conv2d_backward(grad_out, cache):
    cols, x_shape, weight, stride, pad = cache
    c, r, _ = weight.shape
    n = grad_out.shape[0]
    g = grad_out.reshape(n, c, -1)
    cols4 = cols.reshape(n, c, r * r, -1)
    grad_w = np.einsum("ncp,nckp->ck", g, cols4, optimize=True).reshape(weight.shape)
    grad_cols = g[:, :, None, :] * weight.reshape(1, c, r * r, 1)
    grad_x = col2im(grad_cols.reshape(n, c * r * r, -1), x_shape, r, stride, pad)
    return grad_x, grad_w


def maxpool2d_forward(x, kernel, stride, pad):
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    cols4 = im2col(x, kernel, stride, pad, pad_value=-np.inf).reshape(
        n, c, kernel * kernel, oh * ow
    )
    arg = np.argmax(cols4, axis=2)
    out = np.take_along_axis(cols4, arg[:, :, None, :], axis=2)[:, :, 0, :]
    return out.reshape(n, c, oh, ow), (arg, x.shape, kernel, stride, pad)


def maxpool2d_backward(grad_out, cache):
    arg, x_shape, kernel, stride, pad = cache
    n, c, oh, ow = grad_out.shape
    cols4 = np.zeros((n, c, kernel * kernel, oh * ow), dtype=grad_out.dtype)
    np.put_along_axis(cols4, arg[:, :, None, :], grad_out.reshape(n, c, 1, -1), axis=2)
    return col2im(cols4.reshape(n, c * kernel * kernel, -1), x_shape, kernel, stride, pad)


def avgpool2d_forward(x, kernel, stride, pad):
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    cols4 = im2col(x, kernel, stride, pad).reshape(n, c, kernel * kernel, oh * ow)
    return cols4.mean(axis=2).reshape(n, c, oh, ow), (x.shape, kernel, stride, pad)


def avgpool2d_backward(grad_out, cache):
    x_shape, kernel, stride, pad = cache
    n, c, oh, ow = grad_out.shape
    kk = kernel * kernel
    g = grad_out.reshape(n, c, 1, oh * ow) / kk
    cols4 = np.ascontiguousarray(np.broadcast_to(g, (n, c, kk, oh * ow)))
    return col2im(cols4.reshape(n, c * kk, -1), x_shape, kernel, stride, pad)


ORACLES = {
    fn.__name__: fn
    for fn in (
        im2col,
        col2im,
        conv2d_forward,
        conv2d_backward,
        depthwise_conv2d_forward,
        depthwise_conv2d_backward,
        maxpool2d_forward,
        maxpool2d_backward,
        avgpool2d_forward,
        avgpool2d_backward,
    )
}
