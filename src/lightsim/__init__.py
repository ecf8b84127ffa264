"""lightsim: structured-light simulation.

Jones calculus, q-plates and patterned retarders, Laguerre-Gaussian and
Gaussian beams, per-photon SAM/OAM ledgers, geometric phases on the
Poincare and wave-vector spheres, angular-spectrum propagation, and fork
interferograms.
"""

from .analysis import (AmLedger, EmDensities, StokesField, am_ledger,
                       azimuthal_spectrum, classical_ke, cpoint_index,
                       em_densities, energy_density, magnetic_energy_fraction,
                       momentum_density, oam_per_photon, photon_partition,
                       sam_per_photon, stokes_field, topological_charge,
                       weighted_wavevector)
from .beams import (Grid, ScalarField, VectorField, circular_components,
                    elliptical_gaussian, gaussian, laguerre_gaussian,
                    plane_wave_em, vector_field)
from .elements import (PatternedRetarder, QPlateSpec, apply_patterned,
                       apply_qplate, rotating_waveplate_series)
from .geomphase import (SpherePath, circle_path, geodesic_path,
                        jones_from_poincare, pancharatnam_cycle_phase,
                        poincare_point, qplate_k_path, solid_angle, srp_phase)
from .interference import fringe_fork_count, interference_image
from .polarization import (JonesMatrix, JonesVector, StokesVector, apply,
                           jones_state, pancharatnam_phase, stokes_of,
                           waveplate)
from .propagation import (conjugate_round_trip, far_field, propagate,
                          second_moment_widths, stability_metrics)
from .scenarios import frequency_shift_from_series, run_scenario, selftest

__version__ = "0.1.0"
