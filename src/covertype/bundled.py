"""Bundled triangulations and worked-example complexes.

Every data file that declares a surface is re-validated on load: the
complex must pass the closed-surface check and classify as declared, so
a corrupted file cannot slip through as test input.  load_bundled keeps
each complex it loads for the life of the process (functools.lru_cache),
and with it every result per_complex keeps on that complex; the test
fixtures load through it, so each bundled complex is built and checked
once per test run.
"""

from __future__ import annotations

from functools import lru_cache

from .bounds import surface_from_name
from .complexes import SimplicialComplex
from .errors import InconsistencyError, NotFoundError
from .fileformat import parse_complex_text
from .surfaces import check_closed_surface, classify_surface

__all__ = ["bundled_names", "bundled_text", "load_bundled"]

_FILES = {
    "sphere_4": "sphere_4.cplx",
    "projective_plane_6": "projective_plane_6.cplx",
    "torus_7": "torus_7.cplx",
    "klein_bottle_8": "klein_bottle_8.cplx",
    "nonorientable_genus3_9": "nonorientable_genus3_9.cplx",
    "genus2_10": "genus2_10.cplx",
    "side_sphere_5": "side_sphere_5.cplx",
    "torus_wedge_circle_9": "torus_wedge_circle_9.cplx",
    "m2_homotopy_9": "m2_homotopy_9.cplx",
}


def bundled_names() -> tuple[str, ...]:
    return tuple(sorted(_FILES))


def bundled_text(name: str) -> str:
    if name not in _FILES:
        raise NotFoundError(f"no bundled complex named {name!r}; have {bundled_names()}")
    # imported here: on Python 3.12 and later importlib.resources loads
    # inspect, a cost of every process that loads this module
    from importlib import resources

    return resources.files(__package__).joinpath("data", _FILES[name]).read_text("utf-8")


@lru_cache(maxsize=None)
def load_bundled(name: str) -> SimplicialComplex:
    parsed = parse_complex_text(bundled_text(name))
    complex_ = parsed.complex()
    if parsed.surface_name is not None:
        declared = surface_from_name(parsed.surface_name)
        if not check_closed_surface(complex_).verdict:
            raise InconsistencyError(f"bundled file {name} does not triangulate a closed surface")
        found = classify_surface(complex_)
        if found != declared:
            raise InconsistencyError(
                f"bundled file {name} declares {declared.name} but classifies as {found.name}"
            )
    return complex_
