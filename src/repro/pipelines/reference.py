"""Reference pipelines: known-correct replay environments (§3.3).

A reference pipeline is an :class:`~repro.pipelines.edge.EdgeApp` configured
from the model's own recorded recipe (so the §2 "mismatching assumptions"
trap cannot occur), running the requested model *version* — checkpoint,
mobile, or quantized — on the workstation device with per-layer logging.
It replays recorded playback data, so drive it with
:meth:`EdgeApp.replay <repro.pipelines.edge.EdgeApp.replay>` (many frames
per invoke, the same per-frame logs as ``EdgeApp.run``).

ML-EXray ships correct reference pipelines for the well-defined tasks
(classification, detection, segmentation, speech, text) and accepts
user-defined ones: pass any preprocess/postprocess pair to ``EdgeApp``
directly (the lane-detection example in ``examples/custom_task_validation.py``
does exactly that).
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.instrument.monitor import EdgeMLMonitor
from repro.perfmodel.device import WORKSTATION
from repro.pipelines.edge import EdgeApp, make_preprocess
from repro.util.errors import ValidationError


def build_reference_app(graph: Graph, sink=None) -> EdgeApp:
    """Construct the reference pipeline for a model graph.

    The graph must carry its pipeline recipe in ``metadata["pipeline"]``
    (every zoo export does). ``sink`` routes the reference monitor's frames
    (e.g. a :class:`~repro.instrument.sinks.DirectorySink` streams the
    reference log to disk so sweeps can share it as a path).
    """
    meta = graph.metadata.get("pipeline")
    if meta is None:
        raise ValidationError(
            "graph has no pipeline metadata; build a custom reference "
            "pipeline with EdgeApp directly"
        )
    monitor = EdgeMLMonitor(name="reference", per_layer=True, sink=sink)
    return EdgeApp(
        graph,
        preprocess=make_preprocess(meta),
        device=WORKSTATION,
        monitor=monitor,
    )
