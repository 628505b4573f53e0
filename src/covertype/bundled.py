"""Bundled triangulations and worked-example complexes.

_FILES is the one table of what each data file must be: the name, whose
file is NAME.cplx under data/, and the closed surface it triangulates,
or None for a complex that is no closed surface.  A file with a class
is re-validated on load: the complex must pass the closed-surface check
and classify as declared, so a corrupted file cannot slip through as
test input.  A file's own '# surface:' line is a comment for its
readers, which the parser skips like any other.  load_bundled keeps
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
    "sphere_4": "S^2",
    "projective_plane_6": "RP^2",
    "torus_7": "T^2",
    "klein_bottle_8": "N_2",
    "nonorientable_genus3_9": "N_3",
    "genus2_10": "M_2",
    "side_sphere_5": None,
    "torus_wedge_circle_9": None,
    "m2_homotopy_9": None,
}


def bundled_names() -> tuple[str, ...]:
    return tuple(sorted(_FILES))


def bundled_text(name: str) -> str:
    if name not in _FILES:
        raise NotFoundError(f"no bundled complex named {name!r}; have {bundled_names()}")
    # imported here: on Python 3.12 and later importlib.resources loads
    # inspect, a cost of every process that loads this module
    from importlib import resources

    return resources.files(__package__).joinpath("data", f"{name}.cplx").read_text("utf-8")


@lru_cache(maxsize=None)
def load_bundled(name: str) -> SimplicialComplex:
    complex_ = parse_complex_text(bundled_text(name)).complex()
    if _FILES[name] is not None:
        declared = surface_from_name(_FILES[name])
        if not check_closed_surface(complex_).verdict:
            raise InconsistencyError(f"bundled file {name} does not triangulate a closed surface")
        found = classify_surface(complex_)
        if found != declared:
            raise InconsistencyError(
                f"bundled file {name} declares {declared.name} but classifies as {found.name}"
            )
    return complex_
