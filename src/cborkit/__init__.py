"""cborkit: CBOR and compact DNS message codecs with size analysis tools."""

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cbor",
    "cli",
    "dnscbor",
    "dnspacked",
    "dnswire",
    "jsonbridge",
    "taxonomy",
]
