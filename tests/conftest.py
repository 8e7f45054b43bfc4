from hypothesis import settings

# One profile for every property test: the same examples on every run, no
# example database on disk, and no per-example deadline on a loaded host.
# A test sets only its own max_examples.
settings.register_profile("minps", derandomize=True, database=None, deadline=None)
settings.load_profile("minps")
