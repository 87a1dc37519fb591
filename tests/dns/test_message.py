"""Tests for building DNS queries and starting their responses."""

from hypothesis import given
from hypothesis import strategies as st

from repro.dns import DnsMessage, DomainName, Opcode, Rcode, RecordType, reverse_pointer
from repro.dns.message import Question

name_strategy = st.lists(
    st.from_regex(r"[a-z][a-z0-9-]{0,15}", fullmatch=True), min_size=1, max_size=5
).map(DomainName)


class TestHeader:
    def test_query_has_id_and_one_ptr_question(self):
        name = reverse_pointer("192.0.2.1")
        query = DnsMessage.query(name, msg_id=4242)
        assert query.msg_id == 4242
        assert not query.is_response
        assert query.opcode is Opcode.QUERY
        assert query.questions == [Question(name, RecordType.PTR)]

    def test_query_keeps_requested_type(self):
        query = DnsMessage.query(DomainName.parse("2.0.192.in-addr.arpa"), RecordType.SOA)
        assert query.questions[0].rtype is RecordType.SOA

    def test_recursion_desired_preserved(self):
        query = DnsMessage.query(reverse_pointer("10.0.0.1"), recursion_desired=True)
        assert query.recursion_desired
        assert query.response().recursion_desired
        assert not DnsMessage.query(reverse_pointer("10.0.0.1")).response().recursion_desired

    def test_response_copies_id_and_question(self):
        query = DnsMessage.query(reverse_pointer("192.0.2.1"), msg_id=7)
        response = query.response(Rcode.NXDOMAIN)
        assert response.is_response
        assert response.rcode is Rcode.NXDOMAIN
        assert response.msg_id == 7
        assert response.opcode is query.opcode
        assert response.questions == query.questions
        assert response.answers == [] and response.authority == []

    def test_response_defaults_to_noerror(self):
        assert DnsMessage.query(reverse_pointer("192.0.2.1")).response().rcode is Rcode.NOERROR

    def test_response_question_list_is_a_copy(self):
        query = DnsMessage.query(reverse_pointer("192.0.2.1"))
        response = query.response()
        response.questions.append(Question(DomainName.parse("example.com")))
        assert len(query.questions) == 1

    @given(
        name_strategy,
        st.integers(min_value=0, max_value=65535),
        st.booleans(),
        st.sampled_from(list(Rcode)),
    )
    def test_response_mirrors_query_property(self, name, msg_id, recursion_desired, rcode):
        query = DnsMessage.query(name, msg_id=msg_id, recursion_desired=recursion_desired)
        response = query.response(rcode)
        assert response.is_response and not query.is_response
        assert response.msg_id == msg_id
        assert response.recursion_desired is recursion_desired
        assert response.rcode is rcode
        assert response.questions == [Question(name)]
