"""Rule modules — importing this package registers every shipped rule.

Each module holds one rule class decorated with
:func:`repro.analysis.base.register_rule`; the registry is what
``repro-pll lint`` and ``--list-rules`` enumerate.  To add a rule, drop a new
module here, import it below, and give it fixture coverage in
``tests/test_analysis_rules.py`` (see README "Static analysis").
"""

from . import (  # noqa: F401  (imported for registration side effects)
    async_blocking,
    bench_schema,
    dtype_discipline,
    kernel_hot_loop,
    lock_discipline,
    metric_names,
    protocol_drift,
)

__all__ = [
    "async_blocking",
    "bench_schema",
    "dtype_discipline",
    "kernel_hot_loop",
    "lock_discipline",
    "metric_names",
    "protocol_drift",
]
