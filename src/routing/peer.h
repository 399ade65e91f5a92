#pragma once

#include "msg/message.h"
#include "routing/types.h"

/// \file peer.h
/// The transport-neutral view of a contacted device. The exchange-phase
/// entry points (ChitChat planning, incentive promises, peer-side admission)
/// and the DtnOperator facade consume this interface instead of a concrete
/// routing::Host, so the same protocol code drives both execution modes:
///
///   * simulation — Host implements Peer directly (the peer is another
///     in-process Host; strength queries hit the peer router's memo cache);
///   * live overlay — live::RemotePeer implements Peer from wire state (the
///     HELLO rank, the peer's last interest-table digest, and the observed
///     duplicate/accept history stand in for direct object access).
///
/// The interface is deliberately read-only: everything a sender may learn
/// about a peer during an exchange is information the live protocol actually
/// puts on the wire. Mutating the peer (delivering a copy, paying tokens)
/// stays on the transfer hooks (on_sent, on_received), which remain
/// transport-specific.

namespace dtnic::routing {

namespace chitchat {
class InterestTable;
}  // namespace chitchat

class Peer {
 public:
  virtual ~Peer() = default;

  [[nodiscard]] virtual NodeId id() const = 0;

  /// User role R_u of the incentive formula (1 = top of the hierarchy).
  [[nodiscard]] virtual int rank() const = 0;

  /// Whether the peer is known to already carry (or have carried) \p id.
  /// Planning must not offer such messages. A remote implementation may
  /// under-report (an unknown remote history looks empty); the peer-side
  /// admission check remains the authority and refuses duplicates.
  [[nodiscard]] virtual bool has_seen(MessageId id) const = 0;

  /// The peer's ChitChat interest table, or nullptr when the peer does not
  /// run a ChitChat-family scheme (or no digest has been exchanged yet).
  [[nodiscard]] virtual const chitchat::InterestTable* interest_table() const = 0;

  /// Σw over \p m's keywords at the peer (S_v of the ChitChat handoff rule);
  /// 0 when the peer has no interest table.
  [[nodiscard]] virtual double message_strength(const msg::Message& m) const = 0;
};

}  // namespace dtnic::routing
