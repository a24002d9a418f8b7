"""Fault hierarchy. Every fault carries a short machine-greppable code."""


class DramCamError(Exception):
    """Base class for all simulator faults."""

    code = "fault"


class AddressFault(DramCamError):
    """Row index out of range, or a majority-row address constraint violated."""

    code = "address-fault"


class ProtocolFault(DramCamError):
    """Command issued in a state the DRAM protocol does not allow."""

    code = "protocol-fault"


class TimingFault(DramCamError):
    """Command gaps fall in the undefined band between micro-op thresholds."""

    code = "timing-fault"


class LayoutFault(DramCamError):
    """Row/column budget exceeded or reserved rows would be overwritten."""

    code = "layout-fault"


class EncodingFault(DramCamError):
    """Cell image or symbol sequence does not decode under the active mode."""

    code = "encoding-fault"


class NoOpFault(DramCamError):
    """A requested operation would have no effect (e.g. copy onto itself)."""

    code = "no-op-fault"


class EmptyDbFault(DramCamError):
    """Database build produced no storable records."""

    code = "empty-db-fault"


class TraceFormatError(DramCamError):
    """Command-trace text or structure is malformed."""

    code = "trace-format-error"


class AccountingFault(DramCamError):
    """Metrics input is degenerate (e.g. zero-latency compare)."""

    code = "accounting-fault"


class ConfigError(DramCamError):
    """Configuration file or parameter set is invalid."""

    code = "config-error"


class IOFault(DramCamError):
    """An input file cannot be read or an output file cannot be written."""

    code = "io-fault"


class StalePresetWarning(UserWarning):
    """Majority issued without re-copying any participant row since the last one."""
