"""The lint-rule registry and the ``lint_graph`` driver.

Rules are small functions registered under a stable id::

    @register_rule("G001", severity="error", category="graph",
                   title="dangling tensor reference")
    def dangling_inputs(ctx: RuleContext) -> Iterator[Diagnostic]:
        ...

Each rule receives a :class:`RuleContext` — the graph under analysis plus
lazily-built derived state (producers/consumers maps, a resolver, a
compiled :class:`~repro.runtime.plan.ExecutionPlan`) — and yields
:class:`~repro.analysis.diagnostics.Diagnostic` findings via
:meth:`RuleContext.diag`, which stamps the registered severity/category so
a rule cannot drift from its registration. A rule may *downgrade* a finding
(e.g. a mostly-error rule emitting one advisory) by passing ``severity=``.

:func:`lint_graph` runs the registered rules in category order (graph →
quant → dataflow → plan → arena → pipeline). Dataflow, plan, and arena
rules are skipped when the graph analyzer found structural errors —
interpreting or compiling a miswired graph would only produce noise after
the real finding. Dataflow (D) and arena (A) rules consume the abstract
interpreter in :mod:`repro.analysis.dataflow` via
:meth:`RuleContext.get_ranges`, so their findings are proofs over every
reachable input, not heuristics.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.util.errors import ValidationError, did_you_mean

CATEGORIES = ("graph", "quant", "dataflow", "plan", "arena", "pipeline")
"""Analyzer families, in the order the driver runs them."""


@dataclass
class RuleContext:
    """Everything a rule may inspect, with derived state built lazily.

    ``graph`` may be ``None`` during sweep pre-flight when the variant's
    stage could not even be built — only pipeline rules that cope without a
    graph (registry-name checks) run then. ``resolver`` and ``plan`` can be
    injected by callers (custom resolvers, tampered-plan tests); otherwise
    they are derived from ``backend`` on first use.
    """

    graph: object | None
    backend: str | None = None
    variant: object | None = None
    resolver: object | None = None
    plan: object | None = None
    _producers: dict | None = field(default=None, repr=False)
    _consumers: dict | None = field(default=None, repr=False)
    _ranges: object | None = field(default=None, repr=False)
    _rule: "LintRule | None" = field(default=None, repr=False)

    @property
    def producers(self) -> dict:
        if self._producers is None:
            self._producers = self.graph.producers()
        return self._producers

    @property
    def consumers(self) -> dict:
        if self._consumers is None:
            self._consumers = self.graph.consumers()
        return self._consumers

    def get_resolver(self):
        """The resolver under analysis, built from ``backend`` on demand."""
        if self.resolver is None:
            from repro.runtime.resolver import make_resolver

            self.resolver = make_resolver(self.backend or "optimized")
        return self.resolver

    def get_plan(self):
        """A compiled execution plan for (graph, resolver), built on demand."""
        if self.plan is None:
            from repro.runtime.plan import ExecutionPlan

            self.plan = ExecutionPlan(self.graph, self.get_resolver())
        return self.plan

    def get_ranges(self):
        """Abstract-interpretation range facts for the graph, built once.

        All dataflow rules share one :class:`~repro.analysis.dataflow.
        RangeFacts` so the (cheap but not free) fixed forward pass runs at
        most once per lint invocation.
        """
        if self._ranges is None:
            from repro.analysis.dataflow import analyze_ranges

            self._ranges = analyze_ranges(self.graph)
        return self._ranges

    def diag(self, message: str, *, node: str | None = None,
             tensor: str | None = None, evidence: dict | None = None,
             severity: str | None = None) -> Diagnostic:
        """Build a Diagnostic stamped with the running rule's registration."""
        rule = self._rule
        return Diagnostic(
            rule_id=rule.rule_id,
            severity=severity or rule.severity,
            category=rule.category,
            message=message,
            graph=getattr(self.graph, "name", None),
            node=node,
            tensor=tensor,
            evidence=dict(evidence or {}),
        )


RuleFn = Callable[[RuleContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """One registered rule: id, default severity, category, and check fn."""

    rule_id: str
    severity: str
    category: str
    title: str
    fn: RuleFn
    needs_graph: bool = True

    @property
    def doc(self) -> str:
        """First line of the rule function's docstring (catalog text)."""
        text = (self.fn.__doc__ or "").strip()
        return text.splitlines()[0] if text else self.title


RULES: dict[str, LintRule] = {}
"""Registered rules by id — the single source of truth for the catalog."""


def register_rule(rule_id: str, *, severity: str, category: str,
                  title: str, needs_graph: bool = True) -> Callable[[RuleFn], RuleFn]:
    """Class-level decorator registering a rule function under a stable id."""
    from repro.analysis.diagnostics import severity_rank

    severity_rank(severity)
    if category not in CATEGORIES:
        raise ValidationError(
            f"rule {rule_id}: unknown category {category!r}; "
            f"use one of {CATEGORIES}")

    def wrap(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValidationError(f"duplicate lint rule id {rule_id!r}")
        RULES[rule_id] = LintRule(rule_id=rule_id, severity=severity,
                                  category=category, title=title, fn=fn,
                                  needs_graph=needs_graph)
        return fn

    return wrap


_RULES_LOADED = False


def _ensure_rules() -> None:
    """Import the rule modules so their registrations have run."""
    global _RULES_LOADED
    if _RULES_LOADED:
        return
    import repro.analysis.dataflow_rules  # noqa: F401
    import repro.analysis.graph_rules  # noqa: F401
    import repro.analysis.pipeline_rules  # noqa: F401
    import repro.analysis.plan_rules  # noqa: F401
    import repro.analysis.quant_rules  # noqa: F401
    _RULES_LOADED = True


def rule_catalog() -> list[LintRule]:
    """All registered rules, id-ordered (the README/--help catalog)."""
    _ensure_rules()
    return [RULES[rid] for rid in sorted(RULES)]


def explain_rule(rule_id: str) -> str:
    """Human-readable explanation of one rule (``repro lint --explain``).

    Returns the rule's id, title, severity, category, and full docstring;
    raises :class:`~repro.util.errors.ValidationError` with a did-you-mean
    suggestion on unknown ids.
    """
    _ensure_rules()
    try:
        rule = RULES[rule_id]
    except KeyError:
        raise ValidationError(
            f"unknown lint rule id {rule_id!r}"
            f"{did_you_mean(rule_id, RULES)}; "
            f"available: {', '.join(sorted(RULES))}") from None
    lines = [
        f"{rule.rule_id}: {rule.title}",
        f"  severity: {rule.severity}",
        f"  category: {rule.category}",
    ]
    text = (rule.fn.__doc__ or "").strip()
    if text:
        lines.append("")
        for raw in text.splitlines():
            lines.append(f"  {raw.strip()}" if raw.strip() else "")
    return "\n".join(lines)


def make_diagnostic(rule_id: str, message: str, *, graph: str | None = None,
                    node: str | None = None, tensor: str | None = None,
                    evidence: dict | None = None) -> Diagnostic:
    """Build a Diagnostic for a registered rule outside a driver run.

    The pre-flight uses this for findings that exist *before* a graph does
    (e.g. S005: the variant's stage cannot be built at all).
    """
    _ensure_rules()
    try:
        rule = RULES[rule_id]
    except KeyError:
        raise ValidationError(
            f"unknown lint rule id {rule_id!r}"
            f"{did_you_mean(rule_id, RULES)}") from None
    return Diagnostic(rule_id=rule.rule_id, severity=rule.severity,
                      category=rule.category, message=message, graph=graph,
                      node=node, tensor=tensor, evidence=dict(evidence or {}))


def lint_graph(
    graph,
    *,
    backend: str | None = None,
    variant=None,
    categories: Iterable[str] | None = None,
    resolver=None,
    plan=None,
    target: str | None = None,
) -> LintReport:
    """Run the registered static-analysis rules over a graph.

    Parameters
    ----------
    graph:
        The graph under analysis. May be ``None`` only when a caller (the
        sweep pre-flight) restricts ``categories`` to rules that survive
        without one.
    backend:
        Select the resolver the plan analyzer compiles against; defaults
        to the "optimized" backend.
    variant:
        A :class:`~repro.validate.variants.SweepVariant` for the pipeline
        analyzer's deployment checks; without one, variant-specific rules
        stay silent.
    categories:
        Restrict to a subset of :data:`CATEGORIES` (driver order is kept).
    resolver / plan:
        Pre-built resolver / execution plan to analyze instead of deriving
        them — the hook for custom resolvers and plan-consistency tests.
    """
    _ensure_rules()
    selected = tuple(categories) if categories is not None else CATEGORIES
    for cat in selected:
        if cat not in CATEGORIES:
            raise ValidationError(
                f"unknown lint category {cat!r}"
                f"{did_you_mean(cat, CATEGORIES)}; available: {CATEGORIES}")
    ctx = RuleContext(graph=graph, backend=backend, variant=variant,
                      resolver=resolver, plan=plan)
    diagnostics: list[Diagnostic] = []
    structural_errors = False
    for category in CATEGORIES:
        if category not in selected:
            continue
        if category in ("dataflow", "plan", "arena") and structural_errors:
            continue  # a miswired graph cannot compile; G-rules said why
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            if rule.category != category:
                continue
            if rule.needs_graph and graph is None:
                continue
            ctx._rule = rule
            diagnostics.extend(rule.fn(ctx))
        if category == "graph":
            structural_errors = any(
                d.severity == "error" for d in diagnostics)
    if target is None:
        target = getattr(graph, "name", None) or "<no graph>"
    return LintReport(target=target, diagnostics=diagnostics, backend=backend)


def verify_pass(graph, pass_name: str, *, forbid: Iterable[str] = ()) -> LintReport:
    """Post-condition check for a convert pass: lint and raise on errors.

    Runs the graph and quantization analyzers over the pass output and
    raises :class:`~repro.util.errors.GraphError` if any error-severity
    diagnostic — or any diagnostic whose rule id is in ``forbid``, whatever
    its severity — survives. This is what ``verify=True`` on the convert
    passes calls, so a pass bug surfaces at the pass that introduced it.
    """
    from repro.util.errors import GraphError

    report = lint_graph(graph, categories=("graph", "quant"),
                        target=f"{getattr(graph, 'name', '?')} after {pass_name}")
    forbid = frozenset(forbid)
    bad = [d for d in report.diagnostics
           if d.severity == "error" or d.rule_id in forbid]
    if bad:
        details = "\n".join(f"  {d.describe()}" for d in bad)
        raise GraphError(
            f"pass {pass_name!r} violated its post-conditions on graph "
            f"{getattr(graph, 'name', '?')!r}:\n{details}")
    return report
