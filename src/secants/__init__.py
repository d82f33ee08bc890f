"""Secant-size spectra of point sets in finite projective planes."""

__version__ = "0.1.0"

from .field import Field, FieldError, make_field
from .plane import PlaneError, ProjectivePlane, build_plane
from .spectrum import (PointSet, bounds_report, compute_spectrum, cor_bound_ceiling,
                       verify_counting_identities)
from .construct import (ConstructionError, FamilyParams, ParabolaParams, ec_region,
                        parabola_family, parabola_region, pointset_from_json,
                        pointset_to_json, random_set)
from .charwalk import level_stats, projection_profile, psi_walk, verify_projection_laws
from .ecurve import CurveError, curve_count, ec_spectrum_scan
from .legit import (LegitError, LinearHypergraph, generate_linear_hypergraph,
                    two_phase_coloring, verify_legitimate)
from .harness import exhaustive_minmax, local_search, run_sweep, sweep_to_csv
