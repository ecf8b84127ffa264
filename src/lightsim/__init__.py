"""lightsim: structured-light simulation.

Jones calculus, q-plates, Laguerre-Gaussian and Gaussian beams, per-photon
SAM/OAM ledgers, geometric phases on the Poincare and wave-vector spheres,
angular-spectrum propagation, and fork interferograms.
"""

from .analysis import (AmLedger, am_ledger, azimuthal_spectrum, classical_ke,
                       energy_density, magnetic_energy_fraction,
                       momentum_density, photon_partition, topological_charge)
from .beams import (Grid, ScalarField, VectorField, circular_components,
                    elliptical_gaussian, gaussian, laguerre_gaussian,
                    plane_wave_em, vector_field)
from .elements import QPlateSpec, apply_qplate, rotating_waveplate_series
from .geomphase import (SpherePath, circle_path, geodesic_path,
                        jones_from_poincare, pancharatnam_cycle_phase,
                        qplate_k_path, solid_angle, srp_phase)
from .interference import fringe_fork_count, interference_image
from .polarization import (JonesVector, StokesVector, jones_state,
                           pancharatnam_phase, stokes_of)
from .propagation import (far_field, propagate, propagations,
                          stability_record)
from .scenarios import run_scenario, selftest

__version__ = "0.1.0"
