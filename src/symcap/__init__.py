"""Exact capacity sequences of four-dimensional toric domains.

Everything is big-rational arithmetic end to end: domain data, edge
lengths, path optima, weight decompositions, capacities, and obstruction
reports are `fractions.Fraction` values with zero rounding anywhere.
"""

from .capacities import (CapacityResult, ball_multiplicity, capacity_sequence,
                         ck, clear_memo, load_disk_cache, save_disk_cache)
from .domains import (CP2, Ball, ConcaveToric, ConvexToric, DisjointUnion,
                      Domain, Ellipsoid, Polydisk, S2xS2, ball, concave_toric,
                      convex_toric, cp2, disjoint_union, domain_from_json,
                      ellipsoid, polydisk, s2xs2, scale_domain)
from .geometry import (Polygon, cross, is_convex, lattice_points_on_path,
                       lattice_points_under_path, path_vertices, rational,
                       rational_str)
from .obstructions import (AsymptoticReport, ObstructionReport,
                           asymptotic_ratio, check_embedding,
                           scaling_lower_bound, sqrt_interval)
from .paths import (LatticePath, PathOptimum, anti_norm, concave_path,
                    convex_path, dual_norm, ell, lcheck, lhat, max_concave,
                    min_convex, path_to_json, validate_path)
from .weights import (NegativeWeightDecomposition, negative_weight_sequence,
                      weight_expansion)

__version__ = "0.1.0"
