"""Map specifications the tests share: Klein's quartic beside the
library's GENUS10, and the map graph of a presentation."""

from functools import cache

from cdvcert import groups, maps
from cdvcert.certify import MapSpec
from cdvcert.exactfield import QuadScalar
from cdvcert.exactlinalg import IntPolynomial

KLEIN_PRESENTATION = "< y, z | y^3, z^7, (y*z)^2, (z^-1*y^-1*z*y)^4 >"

# Klein's quartic as the (3,7) triangulation of genus 3: PSL(2,7) with y
# of order 3 (faces), z of order 7 (vertices) and y*z of order 2 (edges).
# Its graph has spectrum 7, -1^7, (+-sqrt 7)^8, so sqrt(7) I - A has
# corank 8, no more than the genus-3 embedding bound 8.
KLEIN = MapSpec(
    presentation=KLEIN_PRESENTATION,
    order=168,
    element_orders=(3, 7, 2),
    shift=QuadScalar.root(7),
    charpoly=(
        (IntPolynomial((-7, 1)), 1),
        (IntPolynomial((1, 1)), 7),
        (IntPolynomial((-7, 0, 1)), 8),
    ),
)


@cache
def map_graph(presentation: str) -> maps.SimpleGraph:
    """The graph of the coset map of a presentation, as certify_map builds
    it, computed once per presentation."""
    parsed = groups.parse_presentation(presentation)
    return maps.genus10_map(parsed, groups.coset_enumerate(parsed)).graph
