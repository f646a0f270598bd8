"""repro — an open-source reproduction of ML-EXray (MLSys 2022).

ML-EXray provides visibility into layer-level details of ML execution on
edge devices and validates cloud-to-edge deployments. This package contains
the full system: the instrumentation API and EdgeML monitor
(:mod:`repro.instrument`), reference pipelines and seeded synthetic datasets
(:mod:`repro.pipelines`, :mod:`repro.datasets`), the deployment-validation
framework (:mod:`repro.validate`) — plus every substrate the evaluation
needs, built from scratch: a TFLite-style graph runtime with optimized and
reference kernel resolvers (:mod:`repro.graph`, :mod:`repro.runtime`,
:mod:`repro.kernels`), model conversion and post-training full-integer
quantization (:mod:`repro.convert`, :mod:`repro.quantize`), a device
performance model (:mod:`repro.perfmodel`), and a trained-from-scratch model
zoo over a numpy autograd (:mod:`repro.zoo`, :mod:`repro.autograd`).

Quickstart::

    from repro import MLEXray, EdgeApp, DebugSession, EXrayLog
    from repro.zoo import get_model
    from repro.pipelines import build_reference_app, make_preprocess

    graph = get_model("micro_mobilenet_v2", stage="quantized")
    edge = EdgeApp(graph, monitor=MLEXray("edge", per_layer=True))
    ref = build_reference_app(get_model("micro_mobilenet_v2", "checkpoint"))
    ...

See ``examples/quickstart.py`` for the complete five-minute walkthrough.
"""

from repro.convert import QuantizationConfig, convert_to_mobile, quantize_graph
from repro.graph import Graph, GraphBuilder, load_model, save_model
from repro.instrument import (
    DirectorySink,
    EXrayLog,
    EdgeMLMonitor,
    LogSink,
    MLEXray,
    MemorySink,
    RingBufferSink,
    TeeSink,
    save_log,
)
from repro.kernels.quantized import (
    NO_BUGS,
    PAPER_OPTIMIZED_BUGS,
    PAPER_REFERENCE_BUGS,
    KernelBugs,
)
from repro.perfmodel import DEVICES, PIXEL4_CPU, Device
from repro.pipelines import (
    EdgeApp,
    ImagePreprocessConfig,
    build_reference_app,
    make_preprocess,
)
from repro.runtime import (
    Interpreter,
    OpResolver,
    ReferenceOpResolver,
)
from repro.validate import DebugSession, ValidationReport

__version__ = "1.0.0"

__all__ = [
    "DEVICES",
    "DebugSession",
    "Device",
    "DirectorySink",
    "EXrayLog",
    "EdgeApp",
    "EdgeMLMonitor",
    "LogSink",
    "MemorySink",
    "RingBufferSink",
    "TeeSink",
    "Graph",
    "GraphBuilder",
    "ImagePreprocessConfig",
    "Interpreter",
    "KernelBugs",
    "MLEXray",
    "NO_BUGS",
    "OpResolver",
    "PAPER_OPTIMIZED_BUGS",
    "PAPER_REFERENCE_BUGS",
    "PIXEL4_CPU",
    "QuantizationConfig",
    "ReferenceOpResolver",
    "ValidationReport",
    "build_reference_app",
    "convert_to_mobile",
    "load_model",
    "make_preprocess",
    "quantize_graph",
    "save_log",
    "save_model",
    "__version__",
]
