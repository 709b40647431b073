"""Test oracle: the series-parallel fold as it was before `homsys.serpar.reduce_graph`
reused its buffers.  It starts from full-size arrays of unit leaves and
evaluates both branches of each round on new arrays.  The buffered fold must
give the same bits.
"""

import numpy as np


def reduce_graph(g) -> tuple[float, float]:
    r = np.ones(g.n_edges)
    d = np.ones(g.n_edges)
    for h in reversed(g.history):
        r0, r1 = r[0::2], r[1::2]
        d0, d1 = d[0::2], d[1::2]
        r = np.where(h, r0 + r1, r0 * r1 / (r0 + r1))
        d = np.where(h, d0 + d1, np.minimum(d0, d1))
    return float(r[0]), float(d[0])
