"""Shared test settings.

The ``ci`` hypothesis profile fuzzes deeper than the default one:
``pytest --hypothesis-profile=ci tests/test_optimizer_reference.py
tests/test_optimizer_packed.py tests/test_site_product.py``.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
