"""Hypothesis profiles: the default one, and ``ci`` for ``--hypothesis-profile=ci``.

Properties that take their example count from the profile set no
``max_examples`` of their own; ``ci`` runs five times as many of them and
prints a blob that reproduces a failure.
"""

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=5 * settings.get_profile("default").max_examples, print_blob=True
)
