"""Hypothesis profiles: ``pytest --hypothesis-profile=ci`` runs ten times the default examples."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
