"""Deliberate RPL006 violation: a registered scheme missing the contract
(no protocol to price it from, no batched kernel for the base dispatch)."""

from repro.compression.base import AggregationScheme
from repro.compression.spec import register


@register("fixture_scheme")
class FixtureScheme(AggregationScheme):
    def aggregate(self, worker_gradients, ctx):
        return worker_gradients
