"""Shared builders: integers and rdata, random CBOR items, random DNS
messages, pcap files; and the check that a batch command's stderr counts
what it names."""

from __future__ import annotations

import random
import re
import string
import struct

from cborkit.cbor import (
    Array,
    Bool,
    Bytes,
    CborError,
    CborItem,
    Float,
    Map,
    Nint,
    Null,
    Simple,
    Tag,
    Text,
    Uint,
    Undefined,
)
from cborkit.dnswire import (
    CLASS_IN,
    DnsMessage,
    DnsWireError,
    Name,
    Question,
    RdataFields,
    ResourceRecord,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_PTR,
    TYPE_SOA,
    TYPE_SRV,
    TYPE_TXT,
    name_rdata,
    pack_rdata,
)


def int_item(value: int) -> CborItem:
    """Model an arbitrary integer in -2**64 .. 2**64 - 1."""
    if value >= 0:
        if value > 0xFFFFFFFFFFFFFFFF:
            raise CborError("integer out of uint64 range: %d" % value)
        return Uint(value)
    n = -1 - value
    if n > 0xFFFFFFFFFFFFFFFF:
        raise CborError("integer below -2**64: %d" % value)
    return Nint(n)


def a_rdata(address: str) -> bytes:
    """Pack a dotted-quad IPv4 address."""
    parts = [int(p) for p in address.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise DnsWireError("bad IPv4 address: %r" % address)
    return bytes(parts)


def mx_rdata(preference: int, exchange: str) -> bytes:
    return pack_rdata(TYPE_MX, RdataFields((preference,), (Name.from_text(exchange),), ()))


def srv_rdata(priority: int, weight: int, port: int, target: str) -> bytes:
    fields = RdataFields((priority, weight, port), (Name.from_text(target),), ())
    return pack_rdata(TYPE_SRV, fields)


def soa_rdata(
    mname: str,
    rname: str,
    serial: int,
    refresh: int,
    retry: int,
    expire: int,
    minimum: int,
) -> bytes:
    names = (Name.from_text(mname), Name.from_text(rname))
    fields = RdataFields((), names, (serial, refresh, retry, expire, minimum))
    return pack_rdata(TYPE_SOA, fields)


_UINT_BOUNDS = (0, 1, 23, 24, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1)


def random_float(rng: random.Random) -> Float:
    """A float exactly representable at its preferred width (never NaN)."""
    width, fmt, size = rng.choice(((16, ">e", 2), (32, ">f", 4), (64, ">d", 8)))
    while True:
        value = struct.unpack(fmt, rng.getrandbits(8 * size).to_bytes(size, "big"))[0]
        if value == value:  # reject NaN payloads
            return Float(value, width)


def random_item(rng: random.Random, depth: int) -> CborItem:
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        kind = rng.randrange(9)
        if kind == 0:
            return Uint(rng.choice(_UINT_BOUNDS) if rng.random() < 0.4 else rng.getrandbits(16))
        if kind == 1:
            return Nint(rng.choice(_UINT_BOUNDS) if rng.random() < 0.4 else rng.getrandbits(16))
        if kind == 2:
            return Bytes(rng.randbytes(rng.randrange(0, 20)))
        if kind == 3:
            alphabet = string.ascii_letters + string.digits + ".-_é☃"
            return Text("".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16))))
        if kind == 4:
            return Bool(rng.random() < 0.5)
        if kind == 5:
            return Null()
        if kind == 6:
            return Undefined()
        if kind == 7:
            return Simple(rng.choice((0, 5, 19, 32, 100, 255)))
        return random_float(rng)
    if roll < 0.75:
        return Array([random_item(rng, depth - 1) for _ in range(rng.randrange(0, 4))])
    if roll < 0.92:
        return Map(
            [
                (random_item(rng, depth - 1), random_item(rng, depth - 1))
                for _ in range(rng.randrange(0, 3))
            ]
        )
    return Tag(rng.choice((0, 1, 24, 34, 1000, 2**33)), random_item(rng, depth - 1))


def random_name(rng: random.Random, pool: list[Name]) -> Name:
    """Mostly reuse or extend pooled names so suffixes repeat."""
    if pool and rng.random() < 0.6:
        base = rng.choice(pool)
        if rng.random() < 0.5 or not base.labels:
            return base
        prefix = "".join(rng.choice("abcdefgh123") for _ in range(rng.randrange(1, 8)))
        extended = Name((prefix.encode(),) + base.labels)
        pool.append(extended)
        return extended
    n_labels = rng.randrange(1, 4)
    labels = tuple(
        "".join(rng.choice("abcdefghijkmnop-0") for _ in range(rng.randrange(1, 10))).encode()
        for _ in range(n_labels)
    )
    name = Name(labels)
    pool.append(name)
    return name


def random_record(rng: random.Random, pool: list[Name]) -> ResourceRecord:
    rtype = rng.choice(
        (TYPE_A, TYPE_A, TYPE_AAAA, TYPE_CNAME, TYPE_NS, TYPE_PTR, TYPE_MX, TYPE_SRV, TYPE_SOA, TYPE_TXT)
    )
    if rtype == TYPE_A:
        rdata = rng.randbytes(4)
    elif rtype == TYPE_AAAA:
        rdata = rng.randbytes(16)
    elif rtype in (TYPE_CNAME, TYPE_NS, TYPE_PTR):
        rdata = name_rdata(random_name(rng, pool).to_text())
    elif rtype == TYPE_MX:
        rdata = mx_rdata(rng.randrange(0, 100), random_name(rng, pool).to_text())
    elif rtype == TYPE_SRV:
        rdata = srv_rdata(
            rng.randrange(0, 10), rng.randrange(0, 10), rng.randrange(1, 65536),
            random_name(rng, pool).to_text(),
        )
    elif rtype == TYPE_SOA:
        rdata = soa_rdata(
            random_name(rng, pool).to_text(), random_name(rng, pool).to_text(),
            rng.getrandbits(32), 3600, 600, 86400, 60,
        )
    else:
        rdata = rng.randbytes(rng.randrange(1, 24))
    rclass = CLASS_IN if rng.random() < 0.9 else 3
    return ResourceRecord(random_name(rng, pool), rtype, rclass, rng.getrandbits(20), rdata)


def random_message(rng: random.Random, response: bool | None = None) -> DnsMessage:
    if response is None:
        response = rng.random() < 0.5
    pool: list[Name] = []
    qname = random_name(rng, pool)
    qtype = rng.choice((TYPE_A, TYPE_AAAA, TYPE_AAAA, TYPE_CNAME, TYPE_TXT))
    qclass = CLASS_IN if rng.random() < 0.9 else 3
    if response:
        flags = 0x8180 if rng.random() < 0.7 else 0x8400 | rng.getrandbits(4)
        counts = (rng.randrange(0, 4), rng.randrange(0, 2), rng.randrange(0, 3))
    else:
        flags = 0x0100 if rng.random() < 0.7 else rng.getrandbits(11) & ~0x8000
        counts = (0, rng.randrange(0, 2), rng.randrange(0, 2))
    sections = [[random_record(rng, pool) for _ in range(n)] for n in counts]
    return DnsMessage(0, flags, [Question(qname, qtype, qclass)], *sections)


def sum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(data) // 2), data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def build_udp_frame(
    payload: bytes,
    sport: int = 40000,
    dport: int = 53,
    src: bytes = b"\x0a\x00\x00\x01",
    dst: bytes = b"\x0a\x00\x00\x02",
    ipv6: bool = False,
    v6_ext: bool = False,
) -> bytes:
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    if ipv6:
        src6 = src.rjust(16, b"\x00")
        dst6 = dst.rjust(16, b"\x00")
        inner = udp
        next_header = 17
        if v6_ext:
            # one hop-by-hop extension header (8 bytes)
            inner = struct.pack(">BB6x", 17, 0) + udp
            next_header = 0
        ip = struct.pack(">IHBB", 0x60000000, len(inner), next_header, 64) + src6 + dst6 + inner
        ethertype = 0x86DD
    else:
        header = struct.pack(
            ">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0, src, dst
        )
        header = header[:10] + struct.pack(">H", sum16(header)) + header[12:]
        ip = header + udp
        ethertype = 0x0800
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", ethertype) + ip


def build_tcp_frame(payload: bytes) -> bytes:
    tcp = struct.pack(">HHIIBBHHH", 40000, 53, 0, 0, 5 << 4, 0x18, 1024, 0, 0) + payload
    header = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 20 + len(tcp), 0, 0, 64, 6, 0,
        b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02",
    )
    return b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0800) + header + tcp


def build_pcap(frames: list[bytes], swapped: bool = False, linktype: int = 1) -> bytes:
    endian = "<" if swapped else ">"
    out = bytearray(
        struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
    )
    for i, frame in enumerate(frames):
        out += struct.pack(endian + "IIII", 1700000000 + i, i * 1000, len(frame), len(frame))
        out += frame
    return bytes(out)


def reconcile_stderr(err: list[str]) -> dict[str, int]:
    """Each noun's skip count on a batch command's stderr, checked against
    the lines that name the skips.  A count line ``<n> <noun>(s) skipped``
    follows exactly n lines ``<label> skipped: <Class>: <text>``, each
    labelled ``<noun> N`` (a file by its name).  A ``pcap:`` line counts
    every packet once, and its undecodable ones are the packet skips."""
    counts: dict[str, int] = {}
    named: list[str] = []
    for line in err:
        count = re.fullmatch(r"(\d+) (\w+)\(s\) skipped", line)
        pcap = re.fullmatch(r"pcap: (\d+) packets, (\d+) decoded, (\d+) non-DNS, "
                            r"(\d+) undecodable, \d+ IPv6 extension header\(s\)", line)
        if count:
            noun = count[2]
            assert named and int(count[1]) == len(named), line
            label = r"\S+" if noun == "file" else r"%s \d+" % noun
            assert all(re.match(r"%s skipped: \w+: " % label, skip) for skip in named), named
            counts[noun] = len(named)
        elif pcap:
            packets, decoded, non_dns, undecodable = (int(n) for n in pcap.groups())
            assert packets == decoded + non_dns + undecodable, line
            assert undecodable == counts.get("packet", 0), line
        if " skipped: " in line:
            named.append(line)
        else:
            named = []
    return counts
