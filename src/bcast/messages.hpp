// Wire formats of the broadcast-protocol messages: Proposal, Decision and
// RetransmitRequest. Every encoded message starts with its MsgKind byte.
#pragma once

#include <vector>

#include "bcast/oal.hpp"
#include "bcast/types.hpp"
#include "net/msg_kind.hpp"
#include "util/bytes.hpp"

namespace tw::bcast {

/// The decision message (paper §2): associates ordinals with updates and
/// membership changes, establishes stability and detects losses. Doubles as
/// a membership control message — the failure detector watches for it.
struct Decision {
  GroupId gid = 0;                ///< group this decision belongs to
  util::ProcessSet group;         ///< members of that group
  std::uint64_t decision_no = 0;  ///< monotone decision counter
  ProcessId decider = kNoProcess;
  sim::ClockTime send_ts = 0;     ///< decider's synchronized clock
  util::ProcessSet alive;         ///< piggybacked alive-list (paper §4.2)
  /// Processes integrated into the group by THIS decision; each will be
  /// sent a state transfer and must hold application deliveries until it
  /// arrives (paper §4.2 join state).
  util::ProcessSet joiners;
  Oal oal;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static Decision decode(util::ByteReader& r);
};

struct RetransmitRequest {
  std::vector<ProposalId> wanted;

  [[nodiscard]] std::vector<std::byte> encode() const;
  static RetransmitRequest decode(util::ByteReader& r);
};

[[nodiscard]] std::vector<std::byte> encode_proposal(const Proposal& p);
Proposal decode_proposal(util::ByteReader& r);

/// The self-delimiting proposal body (everything after the kind byte) —
/// shared by the single-proposal message, proposal batches and the
/// state-transfer proposal list.
void encode_proposal_body(util::ByteWriter& w, const Proposal& p);
Proposal decode_proposal_body(util::ByteReader& r);

/// Most proposals one proposal_batch datagram may carry: the decoder
/// rejects larger batches, so every sender chunks to it.
inline constexpr int kMaxProposalBatch = 4096;

/// Coalesce several proposals into one datagram. A batch of exactly one is
/// emitted as a plain `proposal` message, so batch-of-1 is wire-identical
/// to the unbatched protocol.
[[nodiscard]] std::vector<std::byte> encode_proposal_batch(
    std::span<const Proposal* const> ps);
std::vector<Proposal> decode_proposal_batch(util::ByteReader& r);

}  // namespace tw::bcast
