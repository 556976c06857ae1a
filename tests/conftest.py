"""Test-run configuration: a failing hypothesis example prints the blob
that replays it (`@reproduce_failure`), so a failure seen once in a long
run can be run again."""

from hypothesis import settings

settings.register_profile("germforge", print_blob=True)
settings.load_profile("germforge")
