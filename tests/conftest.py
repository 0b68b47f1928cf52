"""Hypothesis profiles, and the ``ci_profile`` marker that selects the properties run under ``ci``.

Properties that take their example count from the profile set no
``max_examples`` of their own; ``ci`` (``--hypothesis-profile=ci``) runs five
times as many of them and prints a blob that reproduces a failure. CI runs
the tests marked ``ci_profile`` again under it: ``pytest -m ci_profile
--hypothesis-profile=ci tests``.
"""

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=5 * settings.get_profile("default").max_examples, print_blob=True
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "ci_profile: a property that CI runs again under the ci hypothesis profile"
    )
