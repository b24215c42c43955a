"""Exception hierarchy for the phykey package.

Every class here is a refused input, CLI exit code 2; only the CLI's
`RuntimeFailure` (a --strict failure) and I/O errors exit 3.
"""


class PhykeyError(Exception):
    """Base class for all package errors."""


class ConfigError(PhykeyError):
    """Config file / parameter validation failure."""


class GeometryError(PhykeyError):
    """Invalid topology or path geometry."""


class ProfileError(PhykeyError):
    """Antenna profile parse or validation failure."""


class CalibrationError(PhykeyError):
    """Transmit-power calibration cannot be completed."""


class ContractError(PhykeyError):
    """An operation was called with inputs violating its contract."""


class ProtocolError(PhykeyError):
    """Quantization-phase index exchange violated the protocol."""


class TraceFormatError(PhykeyError):
    """Trace CSV or bitstream file does not match the documented format."""
