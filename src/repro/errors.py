"""Exception hierarchy for the Mahimahi reproduction.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch one base class at an API boundary.
The subtree mirrors the package layout: simulation-kernel errors, network
substrate errors, transport errors, HTTP errors, and record/replay errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SimulationError(ReproError):
    """Errors from the discrete-event kernel (bad schedule, stopped sim)."""


class ClockError(SimulationError):
    """An operation would move the virtual clock backwards."""


class NetworkError(ReproError):
    """Base class for network-substrate errors."""


class AddressError(NetworkError):
    """Malformed or unparseable IPv4 address / CIDR prefix."""


class AddressPoolExhausted(NetworkError):
    """The address allocator ran out of free subnets or addresses."""


class RoutingError(NetworkError):
    """No route to the destination from this namespace."""


class InterfaceError(NetworkError):
    """Interface misconfiguration (duplicate name, not attached, down)."""


class NamespaceError(NetworkError):
    """Namespace misconfiguration or cross-namespace violation."""


class TransportError(ReproError):
    """Base class for transport-layer errors."""


class ConnectionReset(TransportError):
    """The peer reset the connection."""


class ConnectionClosed(TransportError):
    """Operation on a connection that is already closed."""


class PortInUse(TransportError):
    """bind() asked for an (ip, port) pair already bound in the namespace."""


class TimeoutError_(TransportError):
    """A transport-level timeout fired (connect or idle timeout)."""


class HttpError(ReproError):
    """Base class for HTTP errors."""


class HttpParseError(HttpError):
    """The byte stream is not a well-formed HTTP/1.x message."""


class HttpProtocolError(HttpError):
    """Semantically invalid HTTP usage (e.g. body on a bodiless response)."""


class HttpTransferError(HttpError):
    """A transfer died mid-response.

    Structured so the failure taxonomy (:mod:`repro.measure.robustness`)
    can classify it: carries the failing URL and the byte offset into the
    response at which the transfer broke.

    Args:
        message: human-readable description.
        url: the URL whose transfer failed (None when unknown).
        bytes_received: response bytes received before the failure.
    """

    def __init__(
        self, message: str, url: "str | None" = None, bytes_received: int = 0
    ) -> None:
        super().__init__(message)
        self.url = url
        self.bytes_received = bytes_received

    def __reduce__(self):
        # Default Exception pickling restores only ``args``; these errors
        # ride back from forked workers inside PageLoadResults,
        # so the structured fields must survive the round trip.
        return (type(self), (self.args[0], self.url, self.bytes_received))

    def __str__(self) -> str:
        parts = [self.args[0]]
        if self.url is not None:
            parts.append(f"url={self.url}")
        parts.append(f"at byte {self.bytes_received}")
        return f"{parts[0]} ({', '.join(parts[1:])})"


class ResetMidTransfer(HttpTransferError):
    """The server reset the connection while a response was in flight."""


class TruncatedBody(HttpTransferError):
    """The connection closed before the response body was complete."""


class DnsError(ReproError):
    """DNS resolution failure (NXDOMAIN, malformed message)."""


class RecordError(ReproError):
    """Base class for record-store errors."""


class StoreFormatError(RecordError):
    """A recorded-site directory or pair file does not match the format."""


class StoreIntegrityError(StoreFormatError):
    """A recorded pair file is damaged (checksum/size mismatch, truncated).

    A subclass of :class:`StoreFormatError` so strict loaders that catch
    format errors also catch integrity failures; ``mm-fsck`` distinguishes
    the two when classifying damage.
    """


class BlobMissingError(StoreIntegrityError):
    """A content-addressed site references a blob the CAS does not hold.

    The dangling-reference case: the pair file is intact but its body
    cannot be materialised. Tolerant loads and ``mm-fsck`` report it as
    ``dangling`` damage of that pair.
    """


class BlobCorruptError(StoreIntegrityError):
    """A CAS blob's bytes no longer hash to its own address.

    Content addressing makes this check free of metadata: the file name
    *is* the expected BLAKE2 digest, so bitrot is detectable from the
    blob alone.
    """


class JournalError(ReproError):
    """A trial journal cannot be read, or belongs to a different sweep.

    Raised by :class:`repro.measure.journal.TrialJournal` when a resume is
    attempted against a journal whose run key does not match the requested
    sweep configuration, or whose header is unreadable.
    """


class FabricError(ReproError):
    """Campaign-fabric failure (``repro.fabric``): a backend could not
    spawn a worker, a campaign lost trials past its retry budget, or a
    coordinator was misconfigured."""


class ProtocolError(FabricError):
    """The fabric wire protocol saw a malformed frame (bad magic, bad
    checksum, truncated length prefix, or an out-of-sequence message)."""


class ProtocolTimeout(ProtocolError):
    """A fabric peer missed a read or write deadline.

    A subclass of :class:`ProtocolError` so every existing broken-stream
    path (coordinator reader threads, worker conversations) treats a
    silent half-open connection exactly like a torn one: the peer is
    retired and its trials reassigned, never waited on forever.
    """


class TraceError(ReproError):
    """Malformed packet-delivery trace file."""


class ShellError(ReproError):
    """Shell construction or composition error."""


class ChaosError(ReproError):
    """Malformed fault plan or fault clause (``repro.chaos``)."""


class BrowserError(ReproError):
    """Page-load failure inside the browser model."""


class CorpusError(ReproError):
    """Corpus generation or loading failure."""


class AnalysisError(ReproError):
    """Base class for determinism-analysis errors (``repro.analysis``)."""


class DeterminismError(AnalysisError):
    """Two replays of the same seeded scenario diverged.

    Raised by :func:`repro.analysis.sanitizer.check_determinism`; the
    message pinpoints the first divergent event with both runs' context.
    """
