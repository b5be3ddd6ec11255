"""Seeded corpora for the benchmark, built without the program's code.

DNS messages are kept in a small model of their own (``Msg``/``Rec``) and
written to wire form by ``to_wire``, which compresses names the way real
servers do.  JSON documents are plain Python values written with the
``json`` module.  The same seed always gives the same corpus; the shape of
a corpus (message sizes, record-type schedule, document tiers) is fixed,
and the seed only draws the content, so figures from different seeds are
comparable.
"""

from __future__ import annotations

import base64
import json
import random
import struct
from dataclasses import dataclass, field

A, NS, CNAME, SOA, PTR, MX, TXT, AAAA, SRV, OPT = 1, 2, 5, 6, 12, 15, 16, 28, 33, 41
IN = 1
NAME_TYPES = (NS, CNAME, PTR)

QUERY_FLAGS = 0x0100
RESPONSE_FLAGS = 0x8180


@dataclass
class Rec:
    name: tuple  # labels as bytes
    rtype: int
    rclass: int
    ttl: int
    # A/AAAA/TXT/OPT: raw bytes; NS/CNAME/PTR: (name,); MX: (pref, name);
    # SRV: (prio, weight, port, name); SOA: (mname, rname, 5 counters...)
    rdata: object


@dataclass
class Msg:
    id: int
    flags: int
    qname: tuple
    qtype: int
    qclass: int = IN
    answers: list = field(default_factory=list)
    authority: list = field(default_factory=list)
    additional: list = field(default_factory=list)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & 0x8000)

    def records(self):
        return [*self.answers, *self.authority, *self.additional]


# --- wire form ---------------------------------------------------------------


def name_wire_length(name: tuple) -> int:
    return sum(len(label) + 1 for label in name) + 1


def rdata_wire_length(rec: Rec) -> int:
    """Length of the record's rdata with every embedded name uncompressed."""
    t, d = rec.rtype, rec.rdata
    if t in NAME_TYPES:
        return name_wire_length(d[0])
    if t == MX:
        return 2 + name_wire_length(d[1])
    if t == SRV:
        return 6 + name_wire_length(d[3])
    if t == SOA:
        return name_wire_length(d[0]) + name_wire_length(d[1]) + 20
    return len(d)


def uncompressed_length(msg: Msg) -> int:
    """Wire length of ``msg`` with no compression pointers, by arithmetic."""
    total = 12 + name_wire_length(msg.qname) + 4
    for rec in msg.records():
        total += name_wire_length(rec.name) + 10 + rdata_wire_length(rec)
    return total


def _key(name: tuple) -> tuple:
    return tuple(label.lower() for label in name)


class _Writer:
    def __init__(self, compress: bool):
        self.out = bytearray()
        self.compress = compress
        self.offsets: dict = {}

    def name(self, name: tuple) -> None:
        key = _key(name)
        cut, target = len(name), None
        if self.compress:
            for i in range(len(name)):
                if key[i:] in self.offsets:
                    cut, target = i, self.offsets[key[i:]]
                    break
        for i in range(cut):
            if self.compress and len(self.out) < 0x4000:
                self.offsets.setdefault(key[i:], len(self.out))
            self.out.append(len(name[i]))
            self.out += name[i]
        if target is None:
            self.out.append(0)
        else:
            self.out += struct.pack(">H", 0xC000 | target)

    def rdata(self, rec: Rec) -> None:
        at = len(self.out)
        self.out += b"\0\0"
        t, d = rec.rtype, rec.rdata
        if t in NAME_TYPES:
            self.name(d[0])
        elif t == MX:
            self.out += struct.pack(">H", d[0])
            self.name(d[1])
        elif t == SRV:
            self.out += struct.pack(">HHH", *d[:3])
            self.name(d[3])
        elif t == SOA:
            self.name(d[0])
            self.name(d[1])
            self.out += struct.pack(">IIIII", *d[2:])
        else:
            self.out += d
        struct.pack_into(">H", self.out, at, len(self.out) - at - 2)


def to_wire(msg: Msg, compress: bool = True) -> bytes:
    """RFC 1035 wire form; with ``compress`` every name, including names in
    NS/CNAME/PTR/MX/SRV/SOA rdata, points at its longest earlier suffix."""
    w = _Writer(compress)
    w.out += struct.pack(
        ">HHHHHH", msg.id, msg.flags, 1,
        len(msg.answers), len(msg.authority), len(msg.additional),
    )
    w.name(msg.qname)
    w.out += struct.pack(">HH", msg.qtype, msg.qclass)
    for rec in msg.records():
        w.name(rec.name)
        w.out += struct.pack(">HHI", rec.rtype, rec.rclass, rec.ttl)
        w.rdata(rec)
    return bytes(w.out)


# --- DNS corpora ---------------------------------------------------------------

_TLDS = (b"com", b"net", b"org", b"de", b"io", b"nl")
_HOSTS = (b"www", b"api", b"cdn", b"mail", b"static", b"login", b"img", b"m", b"edge")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(rng: random.Random, lo: int = 3, hi: int = 10) -> bytes:
    return _fixed_word(rng, rng.randint(lo, hi))


def _fixed_word(rng: random.Random, length: int) -> bytes:
    return "".join(rng.choice(_LETTERS) for _ in range(length)).encode()


class _Pool:
    """Zones and hosts shared by every message of one corpus.  ``shape``
    fixes label lengths and which hosts get a prefix; ``rng`` the letters
    and which zone a name falls in."""

    def __init__(self, shape: random.Random, rng: random.Random, zones: int):
        self.shape = shape
        self.rng = rng
        self.zones = [(_fixed_word(rng, shape.randint(3, 10)), shape.choice(_TLDS)) for _ in range(zones)]

    def zone(self) -> tuple:
        return self.rng.choice(self.zones)

    def host(self, zone: tuple | None = None) -> tuple:
        zone = zone or self.zone()
        label = self.shape.choice(_HOSTS)
        if self.shape.random() < 0.25:
            return (_fixed_word(self.rng, self.shape.randint(2, 6)), label) + zone
        return (label,) + zone

    def ns(self, zone: tuple, i: int) -> tuple:
        return (b"ns%d" % (i + 1),) + zone


def _ttl(rng: random.Random) -> int:
    return rng.choice((60, 300, 3600, 86400)) + rng.randrange(0, 40)


def _txt(rng: random.Random) -> bytes:
    text = ("v=spf1 include:_spf.%s.net ~all" % _word(rng, 6, 6).decode()).encode()
    return bytes([len(text)]) + text


def _opt() -> Rec:
    return Rec((), OPT, 1232, 0, b"")


def _soa(rng: random.Random, pool: _Pool, zone: tuple) -> Rec:
    return Rec(
        zone, SOA, IN, _ttl(rng),
        (pool.ns(zone, 0), (b"hostmaster",) + zone,
         rng.getrandbits(32), 7200, 900, 1209600, 300),
    )


def _answer_set(shape: random.Random, rng: random.Random, pool: _Pool, qname: tuple, qtype: int) -> list:
    out = []
    owner = qname
    if qtype in (A, AAAA) and shape.random() < 0.3:
        target = pool.host()
        out.append(Rec(owner, CNAME, IN, _ttl(rng), (target,)))
        owner = target
    if qtype == A:
        out += [Rec(owner, A, IN, _ttl(rng), rng.randbytes(4)) for _ in range(shape.randint(1, 4))]
    elif qtype == AAAA:
        prefix = rng.randbytes(8)
        out += [Rec(owner, AAAA, IN, _ttl(rng), prefix + rng.randbytes(8))
                for _ in range(shape.randint(1, 2))]
    elif qtype == MX:
        zone = qname[-2:]
        out += [Rec(qname, MX, IN, _ttl(rng), (10 * (i + 1), (b"mx%d" % i,) + zone))
                for i in range(shape.randint(1, 3))]
    elif qtype == TXT:
        out.append(Rec(qname, TXT, IN, _ttl(rng), _txt(rng)))
    elif qtype == SRV:
        zone = qname[-2:]
        out += [Rec(qname, SRV, IN, _ttl(rng), (10, rng.randint(0, 100), 5060, pool.host(zone)))
                for _ in range(shape.randint(1, 2))]
    elif qtype == PTR:
        out.append(Rec(qname, PTR, IN, _ttl(rng), (pool.host(),)))
    return out


_SMALL_QTYPES = (A, A, A, A, AAAA, AAAA, AAAA, MX, TXT, SRV, PTR)


def _small_question(shape: random.Random, rng: random.Random, pool: _Pool) -> tuple:
    qtype = shape.choice(_SMALL_QTYPES)
    if qtype == PTR:
        octets = tuple(str(rng.randrange(256)).encode() for _ in range(4))
        return octets + (b"in-addr", b"arpa"), qtype
    if qtype == SRV:
        return (b"_sip", b"_udp") + pool.zone(), qtype
    name = pool.host()
    if shape.random() < 0.06:
        # Resolvers that randomise query case; names compare case-insensitively.
        name = tuple(label.upper() for label in name)
    return name, qtype


def _small_exchange(shape: random.Random, rng: random.Random, pool: _Pool) -> tuple[Msg, Msg]:
    qname, qtype = _small_question(shape, rng, pool)
    msg_id = rng.getrandbits(16)
    query = Msg(msg_id, QUERY_FLAGS, qname, qtype)
    if shape.random() < 0.3:
        query.additional.append(_opt())
    roll = shape.random()
    zone = qname[-2:]
    if roll < 0.08:
        response = Msg(msg_id, 0x8183, qname, qtype)
        response.authority.append(_soa(rng, pool, zone))
    else:
        flags = RESPONSE_FLAGS if roll < 0.9 else 0x8580
        response = Msg(msg_id, flags, qname, qtype, answers=_answer_set(shape, rng, pool, qname, qtype))
        if shape.random() < 0.15:
            response.authority += [Rec(zone, NS, IN, _ttl(rng), (pool.ns(zone, i),)) for i in range(2)]
            if shape.random() < 0.5:
                response.additional += [
                    Rec(pool.ns(zone, i), A, IN, _ttl(rng), rng.randbytes(4)) for i in range(2)
                ]
    if query.additional and shape.random() < 0.8:
        response.additional.append(_opt())
    return query, response


def small_corpus(seed: int, batches: int, exchanges: int) -> list[list[Msg]]:
    """Resolver-like traffic of an assumed mix (see the README): each batch
    holds ``exchanges`` query/response exchanges.  Most responses follow
    their query a few messages later; 15% of responses arrive without their
    query and 5% of queries go unanswered, so pairing (and question
    elision) covers about 80% of responses.  A fixed-seed ``shape`` generator draws the structure (types,
    record counts, pairing); ``seed`` draws names, ids, addresses and TTLs."""
    shape = random.Random("small-corpus-shape")
    rng = random.Random(seed)
    pool = _Pool(shape, rng, zones=60)
    out = []
    for _ in range(batches):
        timeline = []
        for i in range(exchanges):
            query, response = _small_exchange(shape, rng, pool)
            roll = shape.random()
            if roll >= 0.15:
                timeline.append((i, 0, query))
            if roll < 0.15 or roll >= 0.20:
                timeline.append((i + shape.randint(0, 3), 1, response))
        timeline.sort(key=lambda e: (e[0], e[1]))
        out.append([m for _, _, m in timeline])
    return out


# Record counts and kinds of one round of large responses.  The seed draws
# letters, addresses and the order within a round; which names repeat, and
# how often, is fixed by record index, so the packer sees the same amount
# of sharing whatever the seed.
LARGE_ROUND = (
    ("referral", 13), ("mx", 24), ("srv", 40), ("aaaa", 64),
    ("referral", 80), ("mixed", 120), ("aaaa", 160), ("mixed", 200),
)


def _large_response(rng: random.Random, kind: str, count: int) -> Msg:
    zone = (_fixed_word(rng, 7), rng.choice((b"com", b"net", b"org")))
    others = [(_fixed_word(rng, 6), b"net") for _ in range(3)]
    words = [_fixed_word(rng, 4) for _ in range(8)]

    def host(i: int, in_zone: tuple = zone) -> tuple:
        if i % 4 == 3:
            return (words[i % 8], _HOSTS[i % 9]) + in_zone
        return (_HOSTS[i % 9],) + in_zone

    msg_id = rng.getrandbits(16)
    if kind == "referral":
        # A delegation: NS set in authority, A and AAAA glue in additional;
        # the name servers sit in three provider zones.
        servers = count // 3 + 1
        child = (_fixed_word(rng, 8),) + zone
        msg = Msg(msg_id, 0x8100, (b"www",) + child, A)
        hosts = [(b"ns%d" % i,) + others[i % 3] for i in range(servers)]
        msg.authority = [Rec(child, NS, IN, 172800, (h,)) for h in hosts]
        glue = []
        for h in hosts:
            glue.append(Rec(h, A, IN, 172800, rng.randbytes(4)))
            glue.append(Rec(h, AAAA, IN, 172800, b"\x20\x01\x0d\xb8" + rng.randbytes(12)))
        msg.additional = glue[: count - servers] + [_opt()]
        return msg
    if kind == "aaaa":
        # An address set drawn from three /64 prefixes.
        qname = host(0)
        prefixes = [rng.randbytes(8) for _ in range(3)]
        msg = Msg(msg_id, RESPONSE_FLAGS, qname, AAAA)
        msg.answers = [Rec(qname, AAAA, IN, 300, prefixes[i % 3] + rng.randbytes(8)) for i in range(count)]
        return msg
    if kind == "mx":
        msg = Msg(msg_id, RESPONSE_FLAGS, zone, MX)
        msg.answers = [
            Rec(zone, MX, IN, 3600, (5 * (i % 4 + 1), (b"mx%d" % i, words[i // 4 % 8]) + zone))
            for i in range(count)
        ]
        return msg
    if kind == "srv":
        qname = (b"_xmpp-server", b"_tcp") + zone
        msg = Msg(msg_id, RESPONSE_FLAGS, qname, SRV)
        msg.answers = [
            Rec(qname, SRV, IN, 900, (i % 5, rng.randint(0, 100), 5269, host(i))) for i in range(count)
        ]
        return msg
    # mixed: an authoritative ANY answer for a zone apex with every record type.
    msg = Msg(msg_id, 0x8580, zone, 255)
    makers = (
        lambda i: Rec(zone, NS, IN, 86400, ((b"ns%d" % (i % 4),) + others[i % 3],)),
        lambda i: Rec(zone, MX, IN, 3600, (10 + i, (b"mx%d" % (i % 6),) + zone)),
        lambda i: Rec(host(i), A, IN, 300, rng.randbytes(4)),
        lambda i: Rec(host(i), AAAA, IN, 300, b"\x2a\x00\x14\x50" + bytes(4) + rng.randbytes(8)),
        lambda i: Rec(host(i), CNAME, IN, 300, (host(i + 1, others[i % 3]),)),
        lambda i: Rec((b"_sip", b"_tcp") + zone, SRV, IN, 600, (10, i, 5060, host(i))),
        lambda i: Rec(zone, TXT, IN, 300, _txt(rng)),
    )
    soa = Rec(zone, SOA, IN, 3600, ((b"ns0",) + others[0], (b"hostmaster",) + zone,
                                     rng.getrandbits(32), 7200, 900, 1209600, 300))
    msg.answers = [soa] + [makers[i % len(makers)](i) for i in range(count - 1)]
    return msg


def large_corpus(seed: int, rounds: int) -> list[list[Msg]]:
    """Large responses only; one batch per round of ``LARGE_ROUND``."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        batch = [_large_response(rng, kind, count) for kind, count in LARGE_ROUND]
        rng.shuffle(batch)
        out.append(batch)
    return out


# --- JSON corpus ----------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "status", "ready", "café", "naïve", "東京", "data")


def _text(shape: random.Random, rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(shape.randint(1, 4)))


def _number(shape: random.Random, rng: random.Random):
    roll = shape.random()
    if roll < 0.4:
        return rng.randint(0, 1000)
    if roll < 0.55:
        return rng.randint(-(2**40), 2**40)
    if roll < 0.7:
        return rng.choice((0.5, 1.25, -2.0, 100.0))
    return round(rng.uniform(-1000, 1000), shape.randint(1, 6))


def _scalar(shape: random.Random, rng: random.Random):
    roll = shape.random()
    if roll < 0.45:
        return _text(shape, rng)
    if roll < 0.85:
        return _number(shape, rng)
    return (True, False, None)[shape.randrange(3)]


def _record(shape: random.Random, rng: random.Random, depth: int, width: int):
    rec = {"id": rng.randint(1, 10**6), "name": _text(shape, rng)}
    for i in range(width):
        key = "%s_%d" % (rng.choice(_WORDS[:6]), i)
        if depth > 0 and shape.random() < 0.35:
            if shape.random() < 0.5:
                rec[key] = _record(shape, rng, depth - 1, max(2, width // 2))
            else:
                rec[key] = [_record(shape, rng, depth - 1, 2) for _ in range(shape.randint(1, 3))]
        else:
            rec[key] = _scalar(shape, rng)
    return rec


def _api_doc(shape: random.Random, rng: random.Random, tier: int):
    if tier == 1:
        return {"id": rng.randint(1, 999), "ok": rng.random() < 0.8, "name": _text(shape, rng)[:20]}
    if tier == 2:
        return _record(shape, rng, depth=2, width=6)
    return {"items": [_record(shape, rng, depth=3, width=6) for _ in range(shape.randint(4, 6))],
            "page": rng.randint(1, 50), "total": rng.randint(100, 5000)}


def _file_map(shape: random.Random, rng: random.Random, files: int):
    """A GitHub contents listing: one wide map of files with base64 bodies."""
    out = {}
    for i in range(files):
        path = "src/%s/%s_%d.py" % (rng.choice(_WORDS[:6]), _word(rng).decode(), i)
        body = base64.b64encode(rng.randbytes(shape.randint(30, 200))).decode()
        out[path] = {
            "type": "file", "encoding": "base64", "size": len(body) * 3 // 4,
            "sha": rng.randbytes(20).hex(), "content": body,
        }
    return out


# Kinds and tiers of one JSON directory.
JSON_ROUND = (
    ("api", 1), ("api", 1), ("api", 1), ("api", 2), ("api", 2), ("api", 2),
    ("api", 3), ("api", 3), ("files", 4), ("files", 12),
)


def json_corpus(seed: int, batches: int, rounds: int) -> list[list[str]]:
    """JSON texts: per directory, ``rounds`` repetitions of ``JSON_ROUND``.
    Files are written the way tools write them: some pretty-printed, some
    compact, some ASCII-escaped.  As for DNS, a fixed-seed ``shape`` generator draws the structure (nesting,
    widths, value kinds, blob sizes) and ``seed`` the values."""
    shape = random.Random("json-corpus-shape")
    rng = random.Random(seed)
    out = []
    for _ in range(batches):
        docs = []
        for kind, size in JSON_ROUND * rounds:
            if kind == "api":
                doc = _api_doc(shape, rng, size)
            else:
                doc = _file_map(shape, rng, size)
            docs.append(json.dumps(
                doc, indent=shape.choice((None, 2)), ensure_ascii=shape.random() < 0.3
            ))
        out.append(docs)
    return out
