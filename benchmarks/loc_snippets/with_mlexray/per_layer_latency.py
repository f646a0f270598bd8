"""Debugging target: per-layer latency — WITH ML-EXray (Table 1 row 4)."""


def instrument(monitor, interpreter):
    monitor.attach(interpreter)
    return monitor


def assertion(ctx):
    from repro.util.errors import AssertionFailure
    from repro.validate import find_stragglers
    stragglers = find_stragglers(ctx.edge_log)
    if stragglers:
        worst = stragglers[0]
        raise AssertionFailure(
            "per_layer_latency",
            f"{worst.layer} takes {worst.share:.0%} of inference",
        )
