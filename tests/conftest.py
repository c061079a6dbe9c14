from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; the example count bounds its
# run time.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None, max_examples=60
)
settings.load_profile("deterministic")
