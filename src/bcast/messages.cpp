#include "bcast/messages.hpp"

#include "util/buffer_pool.hpp"

namespace tw::bcast {

std::vector<std::byte> Decision::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::decision));
  w.var_u64(gid);
  w.u64(group.bits());
  w.var_u64(decision_no);
  w.u32(decider);
  w.var_i64(send_ts);
  w.u64(alive.bits());
  w.u64(joiners.bits());
  oal.encode(w);
  return std::move(w).take();
}

Decision Decision::decode(util::ByteReader& r) {
  Decision d;
  d.gid = r.var_u64();
  d.group = util::ProcessSet(r.u64());
  d.decision_no = r.var_u64();
  d.decider = r.u32();
  d.send_ts = r.var_i64();
  d.alive = util::ProcessSet(r.u64());
  d.joiners = util::ProcessSet(r.u64());
  d.oal = Oal::decode(r);
  r.expect_done();
  return d;
}

std::vector<std::byte> RetransmitRequest::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::retransmit_request));
  w.var_u64(wanted.size());
  for (const auto& pid : wanted) {
    w.u32(pid.proposer);
    w.var_u64(pid.seq);
  }
  return std::move(w).take();
}

RetransmitRequest RetransmitRequest::decode(util::ByteReader& r) {
  RetransmitRequest req;
  const std::uint64_t n = r.var_u64();
  if (n > 1 << 16) throw util::DecodeError("retransmit request too large");
  req.wanted.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ProposalId pid;
    pid.proposer = r.u32();
    pid.seq = static_cast<ProposalSeq>(r.var_u64());
    req.wanted.push_back(pid);
  }
  r.expect_done();
  return req;
}

void encode_proposal_body(util::ByteWriter& w, const Proposal& p) {
  w.u32(p.id.proposer);
  w.var_u64(p.id.seq);
  w.u8(static_cast<std::uint8_t>(p.order));
  w.u8(static_cast<std::uint8_t>(p.atomicity));
  w.var_u64(p.hdo);
  w.var_i64(p.send_ts);
  w.var_u64(p.fifo_floor);
  w.bytes(p.payload);
}

Proposal decode_proposal_body(util::ByteReader& r) {
  Proposal p;
  p.id.proposer = r.u32();
  p.id.seq = static_cast<ProposalSeq>(r.var_u64());
  const auto order_raw = r.u8();
  const auto atom_raw = r.u8();
  if (order_raw > 2 || atom_raw > 2)
    throw util::DecodeError("bad proposal semantics");
  p.order = static_cast<Order>(order_raw);
  p.atomicity = static_cast<Atomicity>(atom_raw);
  p.hdo = r.var_u64();
  p.send_ts = r.var_i64();
  p.fifo_floor = static_cast<ProposalSeq>(r.var_u64());
  const auto payload = r.bytes_view();
  p.payload.assign(payload.begin(), payload.end());
  return p;
}

std::vector<std::byte> encode_proposal(const Proposal& p) {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::proposal));
  encode_proposal_body(w, p);
  return std::move(w).take();
}

Proposal decode_proposal(util::ByteReader& r) {
  Proposal p = decode_proposal_body(r);
  r.expect_done();
  return p;
}

std::vector<std::byte> encode_proposal_batch(
    std::span<const Proposal* const> ps) {
  if (ps.size() == 1) return encode_proposal(*ps.front());
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::proposal_batch));
  w.var_u64(ps.size());
  for (const Proposal* p : ps) encode_proposal_body(w, *p);
  return std::move(w).take();
}

std::vector<Proposal> decode_proposal_batch(util::ByteReader& r) {
  const std::uint64_t n = r.var_u64();
  if (n == 0 || n > kMaxProposalBatch) throw util::DecodeError("batch size");
  std::vector<Proposal> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(decode_proposal_body(r));
  r.expect_done();
  return out;
}

}  // namespace tw::bcast
