"""RFC 1035 messages as in-process objects.

The resolver builds queries with :meth:`DnsMessage.query` and the
authoritative server answers them with :meth:`DnsMessage.response`; the
two exchange these objects directly, with no wire encoding in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.dns.name import DomainName
from repro.dns.rcode import Opcode, Rcode, RecordClass, RecordType
from repro.dns.records import ResourceRecord


@dataclass(frozen=True)
class Question:
    """A question-section entry."""

    name: DomainName
    rtype: RecordType = RecordType.PTR
    rclass: RecordClass = RecordClass.IN


@dataclass
class DnsMessage:
    """A DNS query or response."""

    msg_id: int = 0
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    is_response: bool = False
    authoritative: bool = False
    recursion_desired: bool = False
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authority: List[ResourceRecord] = field(default_factory=list)

    @classmethod
    def query(
        cls,
        name: DomainName,
        rtype: RecordType = RecordType.PTR,
        msg_id: int = 0,
        recursion_desired: bool = False,
    ) -> "DnsMessage":
        """Build a query message with a single question."""
        return cls(
            msg_id=msg_id,
            recursion_desired=recursion_desired,
            questions=[Question(name, rtype)],
        )

    def response(self, rcode: Rcode = Rcode.NOERROR) -> "DnsMessage":
        """Start a response to this query, copying id and question."""
        return DnsMessage(
            msg_id=self.msg_id,
            opcode=self.opcode,
            rcode=rcode,
            is_response=True,
            recursion_desired=self.recursion_desired,
            questions=list(self.questions),
        )
