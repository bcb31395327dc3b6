"""Shared test settings.

The ``ci`` hypothesis profile fuzzes deeper than the default one.  The
differential oracles that CI runs at it carry the ``ci`` pytest marker:
``pytest -m ci --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
