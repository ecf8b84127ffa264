"""Exception hierarchy for lightsim.

Every error raised by the library derives from LightsimError, so callers
can catch one type at the CLI boundary.
"""


class LightsimError(Exception):
    """Base class for all lightsim errors; the CLI exits with code 3 on
    any that is not a ConfigError."""


class ConfigError(LightsimError):
    """Invalid or inconsistent scenario configuration (CLI exit code 2)."""


# -- polarization ------------------------------------------------------------

class OrthogonalStates(LightsimError):
    """Pancharatnam phase requested for (near-)orthogonal states."""


class ZeroState(LightsimError):
    """Operation undefined for the zero polarization state."""


# -- beams -------------------------------------------------------------------

class WaistOutOfRange(LightsimError):
    """Beam waist too small for the grid pitch or too large for the window."""


class IndexOutOfRange(LightsimError):
    """Mode index outside the supported range."""


# -- elements ----------------------------------------------------------------

class UndersampledRotation(LightsimError):
    """Time series has fewer than 64 samples per rotation period."""


# -- analysis ----------------------------------------------------------------

class ZeroField(LightsimError):
    """Per-photon observable requested for a zero-power field."""


class RadiusOutOfGrid(LightsimError):
    """Sampling circle does not fit inside the grid."""


class LoopThroughZero(LightsimError):
    """Winding loop passes through a near-zero of the field."""


class ZeroEnergy(LightsimError):
    """Energy fraction undefined at zero total energy."""


class NonpositiveFrequency(LightsimError):
    """Photon energy partition requires a positive frequency."""


# -- geomphase ---------------------------------------------------------------

class OpenPath(LightsimError):
    """Closed-path operation applied to an open sphere path."""


class DegenerateSegment(LightsimError):
    """Sphere path contains an antipodal or zero-length geodesic segment."""


# -- propagation -------------------------------------------------------------

class WindowTooSmall(LightsimError):
    """Field intensity at the window edge too large for accurate transforms."""


# -- interference ------------------------------------------------------------

class TiltTooSmall(LightsimError):
    """Reference tilt produces too few fringes across the window, or too
    slow a carrier, |k_x| * loop radius, for the fork reader's loop."""


class UnresolvableFringes(LightsimError):
    """Fringe period below the sampling limit of the image."""
