"""Shared test settings.

The ``ci`` hypothesis profile fuzzes deeper than the default one:
``pytest --hypothesis-profile=ci tests/test_optimizer_reference.py
tests/test_optimizer_packed.py tests/test_site_product.py
tests/test_simulator.py::test_panelled_unitary_is_bitwise_the_unpanelled_run
tests/test_optimizer_answer_table.py::test_property_optimize_on_wide_wires_matches_the_per_gate_loops
tests/test_paulis.py::test_property_the_packed_layout_round_trips
tests/test_simulator.py::test_property_verify_encoding_is_the_reference_loop
tests/test_circuits.py::test_property_count_resources_is_the_expanded_histogram``.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
