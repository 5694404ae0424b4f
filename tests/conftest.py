"""Settings shared by every test module."""

from hypothesis import settings

# The same examples on every run, no example database left behind, and no
# per-example deadline, which a loaded machine would miss at random.
settings.register_profile("macrocoh", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("macrocoh")
