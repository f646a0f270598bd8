"""The edge inference runtime: interpreter, compiled plans, op resolvers."""

from repro.runtime.annotations import aliases_input
from repro.runtime.interpreter import (
    ExecContext,
    Interpreter,
    LayerRecord,
    node_is_quantized,
)
from repro.runtime.plan import (
    ExecutionPlan,
    NodeBinding,
    derive_bindings,
)
from repro.runtime.resolver import (
    KERNEL_BUG_PRESETS,
    RESOLVERS,
    BaseOpResolver,
    OpResolver,
    ReferenceOpResolver,
    make_resolver,
)

__all__ = [
    "BaseOpResolver",
    "ExecContext",
    "ExecutionPlan",
    "Interpreter",
    "KERNEL_BUG_PRESETS",
    "LayerRecord",
    "NodeBinding",
    "OpResolver",
    "RESOLVERS",
    "ReferenceOpResolver",
    "aliases_input",
    "derive_bindings",
    "make_resolver",
    "node_is_quantized",
]
