"""Debugging target: preprocessing — WITH ML-EXray (Table 1 row 1).

Instrumentation wraps the suspect function; the assertion is the paper's
channel check over the collected context.
"""

import numpy as np


def instrument(monitor, extract_channels):
    extract_channels = monitor.wrap("channel_extraction", extract_channels)
    return extract_channels


def assertion(ctx):
    from repro.util.errors import AssertionFailure
    edge, ref = ctx.input_stacks()
    if not np.allclose(edge, ref) and np.allclose(edge[..., ::-1], ref):
        raise AssertionFailure("channel", "BGR->RGB")
