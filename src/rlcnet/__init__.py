"""RLC resonance networks equivalent to two-dimensional quantum billiards.

Simulates inductor/capacitor lattice networks whose resonances map onto
discrete-Laplacian billiard eigenmodes, computes driven lossy responses and
heat dissipation, and validates the density and heat-power statistics of
chaotic (Bunimovich) geometries.
"""

__version__ = "0.1.0"

from .geometry import (GridGeometry, rasterize_quarter_stadium,
                       rasterize_rectangle)
from .network import (CircuitSpec, Perturbation, assemble_admittance,
                      sample_perturbation)
from .solve import (ComplexField, Mode, SingularSystemError, damping_length,
                    dispersion, driven_response, eigenmode_nearest,
                    eigenmodes_lossless, quality_factor, resonance_sweep,
                    wavelength)
from .fields import (CurrentField, Vortex, heat_power, link_currents,
                     nodal_vortices, power_balance, probability_density,
                     trace_streamlines)
from .stats import (HistogramFit, RotatedField, anisotropy_metrics,
                    density_pdf, fit_histogram, gaussianity_check, heat_pdf,
                    mc_heat_oracle, phase_rotate, sigma_p_sq,
                    sigma_p_sq_empirical)
from .experiments import ConfigError, ExperimentConfig, run

__all__ = [name for name in dir() if not name.startswith("_")]
