"""Helpers several test modules share."""

import numpy as np

from dwfnet import build_net, id_of, net_context


def random_net(n, rng):
    order = 2**n
    return build_net(net_context(n), id_of([int(d) for d in rng.integers(0, order, order + 1)], order))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
