"""hdlab: a numerical laboratory for dilated hypercube patterns in the plane.

Counting forms over planar sets, Gaussian smoothing calculus, Gowers box
norms, the structured/error/uniform decomposition with calibrated
constants, and direct geometric search for scaled hypercube-skeleton
copies, with a reproducible experiment CLI on top.
"""

from .constants import ConstantsFile, load_constants, save_constants
from .counting import (CountingParams, CountingReport, counting_sharp,
                       counting_smooth, degenerate_mass, eval_F,
                       gowers_cs_bound, gowers_norm)
from .decomposition import (DecompositionCell, DecompositionReport, L_form,
                            ScaleLadder, check_error_bound,
                            check_structured_bound, check_uniform_bound,
                            decompose, decomposition_report, error_part,
                            structured_part, theta_form, uniform_part)
from .embedding import (HypercubeCopy, IntervalResult, PlanarSet, ScanOutcome,
                        SearchSpec, avoided_distance_demo,
                        estimate_banach_density, find_copy,
                        pigeonhole_interval, read_pgm, scale_scan, verify_copy)
from .gaussian import (KernelSpec, eval_kernel, fourier_kernel,
                       heat_flow_check, kernel_integral, verify_conv_hh,
                       verify_conv_kg)
from .grid import (PERIODIC, ZERO, PlanarGrid, SpectrumGrid, convolve, dft,
                   from_shape_json, idft, load_grid, make_indicator, measure,
                   save_grid)
from .sphere import (CircleQuadrature, gaussian_domination_check,
                     lower_bound_constant, smooth_sphere, smooth_sphere_value,
                     sphere_fourier, sphere_fourier_radial)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
