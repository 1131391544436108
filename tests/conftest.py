"""Hypothesis profiles.  Tier-1 loads none of them and keeps each test's
own settings; `tests/mutants.py` picks "no-shrink" with
`--hypothesis-profile no-shrink`, since it needs only whether a test
fails, not the smallest failing example."""

from hypothesis import Phase, settings

# every phase up to the first failure; no shrinking, no explaining, and no
# example database written into the runner's throwaway copies
settings.register_profile(
    "no-shrink",
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
    database=None,
)
