"""SPMD004 — kernel-tier encapsulation.

The native C kernels (:mod:`repro.kernels.native`) are reachable only
through the tier registry (:mod:`repro.kernels` / ``repro.kernels.tiers``):
the registry owns tier resolution, the pure fallback when no compiler
exists, the one-time unavailability warning, and the thread-local scratch
that keeps concurrent solves race-free.  A call site that imports
``repro.kernels.native`` directly bypasses all four — it crashes on
compiler-less hosts instead of degrading, and it sidesteps the
bitwise-parity contract's single dispatch point.

Flagged in every module outside ``repro/kernels/`` itself:

- ``import repro.kernels.native`` (and submodules, e.g. ``...native.build``);
- ``from repro.kernels.native import ...``;
- ``from repro.kernels import native`` (and the relative spellings,
  ``from ..kernels import native`` / ``from ..kernels.native import ...``).

Additionally, inside ``repro/core/`` the rule flags direct format
conversions — ``.tocsc()`` / ``.tocsr()`` method calls.  The solver hot
paths must route conversions through ``ensure_csc`` / ``ensure_csr`` (or
``repro.kernels.csr_to_csc`` / ``csc_to_csr``) so they stay visible to
the kernel registry: its ``kernel_tier.convert_*`` perf counters and the
per-kernel spans of the benchmark's traced run count every conversion
made there, while a bare ``.tocsc()`` pays the same scipy counting sort
unseen.  Audited sites where plain scipy is intentional (the reference
oracle route, dtype-preserving engines) carry
``# repro: noqa[SPMD004]``.

Tests are exempt by construction (the lint pass runs over ``src``), and
the registry package itself may import its own tiers freely.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from collections.abc import Iterable

from .findings import Finding
from .framework import LintRule, register

#: Directory whose modules form the tier registry and may import the
#: native tier directly.
REGISTRY_PARTS = ("repro", "kernels")

#: Directory whose modules form the solver hot paths: direct format
#: conversions there bypass the registry conversion and its perf counters.
CORE_PARTS = ("repro", "core")

_MESSAGE = ("direct import of repro.kernels.native bypasses the tier "
            "registry (no pure fallback, no thread-local scratch); "
            "dispatch through repro.kernels instead")

_CONVERT_MESSAGE = ("direct .{attr}() in repro/core/ hides the conversion "
                    "from the kernel registry (its convert_* perf "
                    "counters); use ensure_{fmt} / repro.kernels instead, "
                    "or mark an audited scipy-on-purpose site with "
                    "# repro: noqa[SPMD004]")


def _under(path: str, anchor: tuple[str, ...]) -> bool:
    parts = PurePath(path).parts
    n = len(anchor)
    return any(parts[i:i + n] == anchor
               for i in range(len(parts) - n + 1))


def in_registry(path: str) -> bool:
    return _under(path, REGISTRY_PARTS)


def _norm(module: str | None) -> tuple[str, ...]:
    return tuple(part for part in (module or "").split(".") if part)


@register
class KernelTierRule(LintRule):
    code = "SPMD004"
    name = "kernel-tier-encapsulation"
    rationale = (
        "repro.kernels.native is an implementation detail of the tier "
        "registry; importing it directly skips the pure fallback on "
        "compiler-less hosts and the registry's thread-local scratch, "
        "breaking the graceful-degradation and parity guarantees.")

    def check(self, tree: ast.Module, path: str,
              source: str) -> Iterable[Finding]:
        if in_registry(path):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod = _norm(alias.name)
                    if "native" in mod and "kernels" in mod:
                        yield self.finding(node, _MESSAGE, path=path,
                                           symbol=alias.name)
            elif isinstance(node, ast.ImportFrom):
                mod = _norm(node.module)
                # absolute or relative path *into* the native package
                if "kernels" in mod and "native" in mod:
                    yield self.finding(node, _MESSAGE, path=path,
                                       symbol=".".join(mod))
                # `from ...kernels import native` (any relative depth)
                elif mod[-1:] == ("kernels",) and any(
                        alias.name == "native" for alias in node.names):
                    yield self.finding(node, _MESSAGE, path=path,
                                       symbol=".".join(mod) + ".native")
            elif isinstance(node, ast.Call) and _under(path, CORE_PARTS) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("tocsc", "tocsr"):
                fmt = "csc" if node.func.attr == "tocsc" else "csr"
                yield self.finding(
                    node, _CONVERT_MESSAGE.format(attr=node.func.attr,
                                                  fmt=fmt),
                    path=path, symbol=node.func.attr)
