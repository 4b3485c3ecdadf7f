"""Physical constants and unit conventions.

Internally every energy and frequency in this package is an angular
frequency in rad/ns, numerically equal to 2*pi times the ordinary
frequency in GHz.  Conversion to and from ordinary GHz happens only at
the I/O boundary (JSON configs, CSV output, CLI flags).
"""

import math

# CODATA 2018, 10 significant digits.
E_CHARGE = 1.602176634e-19      # elementary charge, C
HBAR = 1.054571817e-34          # reduced Planck constant, J s

TWO_PI = 2.0 * math.pi

# Two-photon anharmonicity of the coupler ladder used when none is
# supplied; matches the value adopted for the crosstalk analysis.
DEFAULT_COUPLER_ANHARM = -TWO_PI * 0.05  # rad/ns


def ghz_to_angular(f_ghz: float) -> float:
    """Ordinary frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * f_ghz


def angular_to_ghz(omega: float) -> float:
    """Angular frequency in rad/ns -> ordinary frequency in GHz."""
    return omega / TWO_PI
