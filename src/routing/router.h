#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "msg/message.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "routing/types.h"
#include "util/sim_time.h"

/// \file router.h
/// The routing strategy interface. One Router instance is attached to each
/// Host; the contact controller drives the protocol:
///
///   link up:   pre_exchange(both) -> on_link_up(both) -> pump
///   pump:      plan() -> peer accept() -> transfer starts
///   complete:  prepare_send(sender) -> on_sent(sender) -> on_received(peer)
///   link down: on_link_down(both), in-flight transfer aborted
///
/// The base class implements the common store-and-mark-seen behavior; the
/// concrete routers differ in plan() and the hooks.

namespace dtnic::routing {

/// Concrete routing scheme tag, fixed at construction. The contact hot path
/// recovers a router's concrete type per neighbor per slot (ChitChat decay,
/// strength queries, reputation exchange); a one-byte tag comparison replaces
/// the dynamic_cast that used to dominate those loops.
enum class RouterKind : std::uint8_t {
  kOther,  ///< base-class default; externally derived routers land here
  kEpidemic,
  kVaccineEpidemic,
  kDirectDelivery,
  kSprayAndWait,
  kFirstContact,
  kTwoHop,
  kProphet,
  kNectar,
  kChitChat,
  kIncentive,
  kPiIncentive,
};

/// True when \p kind is ChitChatRouter or one of its derivations (the
/// incentive schemes run on the ChitChat substrate).
[[nodiscard]] constexpr bool is_chitchat_kind(RouterKind kind) {
  return kind == RouterKind::kChitChat || kind == RouterKind::kIncentive ||
         kind == RouterKind::kPiIncentive;
}

class Router {
 public:
  explicit Router(const DestinationOracle& oracle, RouterKind kind = RouterKind::kOther)
      : oracle_(oracle), kind_(kind) {}
  virtual ~Router() = default;

  [[nodiscard]] RouterKind kind() const { return kind_; }

  /// Called once when the router is plugged into its host.
  virtual void attach(Host& self) { (void)self; }

  /// Phase 1 of a contact: runs for both endpoints before on_link_up.
  /// ChitChat decays its interest weights here against the *pre-contact*
  /// neighborhood. \p now is the contact time; \p neighbors are the hosts
  /// currently connected to \p self (excluding the new peer).
  virtual void pre_exchange(Host& self, util::SimTime now, std::span<Host* const> neighbors) {
    (void)self; (void)now; (void)neighbors;
  }

  /// Phase 2: both sides have decayed; exchange and grow state.
  /// \p distance_m is the node separation when the contact formed (the
  /// incentive scheme's Friis hardware factor uses it).
  virtual void on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) {
    (void)self; (void)peer; (void)now; (void)distance_m;
  }

  virtual void on_link_down(Host& self, Host& peer, util::SimTime now) {
    (void)self; (void)peer; (void)now;
  }

  /// The ordered transfer wishlist from \p self to \p peer right now.
  /// Implementations must not offer messages \p peer has already seen.
  [[nodiscard]] virtual std::vector<ForwardPlan> plan(Host& self, Host& peer,
                                                      util::SimTime now) = 0;

  /// Allocation-aware variant of plan(): fill \p out (cleared first) instead
  /// of returning a fresh vector, so a caller-owned scratch vector absorbs
  /// the per-contact allocation. The default forwards to plan(); the hot
  /// routers (ChitChat and the incentive schemes) implement their planning
  /// here and derive plan() from it.
  ///
  /// PLAN-SIDE PURITY CONTRACT: plan_into and accept change no observable
  /// state and draw no RNG, so a caller may plan or probe a link without
  /// perturbing the run. Mutation is confined to logically-const
  /// memoization and member scratch (e.g. the ChitChat strength cache,
  /// PRoPHET's idempotent same-timestamp aging). Observable protocol state
  /// changes only in the transfer hooks (on_sent, on_received) and the
  /// contact hooks (on_link_up/down).
  virtual void plan_into(Host& self, Host& peer, util::SimTime now,
                         std::vector<ForwardPlan>& out) {
    out = plan(self, peer, now);
  }

  /// Peer-side admission control, evaluated before the transfer starts.
  /// \p offer carries the sender's role decision and incentive terms.
  /// Subject to the same plan-side purity contract as plan_into: the base
  /// implementation is a read-only has_seen check, and every in-tree
  /// override only reads state (ratings trust gate, ledger affordability,
  /// buffer admission).
  ///
  /// \p from is the transport-neutral Peer view of the sender (peer.h): in
  /// the simulator it is the sending Host; in live mode it is the
  /// RemotePeer the offer frame arrived from, and \p m is a skeleton
  /// message reconstructed from the offer's metadata (id, size, priority,
  /// quality) — exactly the fields the in-tree admission checks read.
  [[nodiscard]] virtual AcceptDecision accept(Host& self, const Peer& from,
                                              const msg::Message& m, const ForwardPlan& offer,
                                              util::SimTime now);

  /// Sender-side hook to stamp metadata onto the outgoing copy (spray
  /// counters) just before it is handed to the peer.
  virtual void prepare_send(Host& self, Host& peer, msg::Message& copy,
                            const ForwardPlan& plan, util::SimTime now) {
    (void)self; (void)peer; (void)copy; (void)plan; (void)now;
  }

  /// Sender-side notification that the copy was fully transferred.
  virtual void on_sent(Host& self, Host& peer, const msg::Message& m, const ForwardPlan& plan,
                       util::SimTime now) {
    (void)self; (void)peer; (void)m; (void)plan; (void)now;
  }

  /// Receiver-side: a complete copy arrived. \p plan is the offer this
  /// transfer was accepted under (role + incentive terms). Default: mark
  /// seen and store, reporting buffer evictions to the event sink.
  virtual void on_received(Host& self, Host& from, msg::Message m, const ForwardPlan& plan,
                           util::SimTime now);

  /// Either side: the in-flight transfer was cut by link loss.
  virtual void on_abort(Host& self, Host& peer, MessageId id, util::SimTime now) {
    (void)self; (void)peer; (void)id; (void)now;
  }

  /// Source-side: the host originated \p m (already stored by the caller).
  virtual void on_originated(Host& self, const msg::Message& m, util::SimTime now) {
    (void)self; (void)m; (void)now;
  }

  [[nodiscard]] const DestinationOracle& oracle() const { return oracle_; }

 protected:
  /// Store \p m in \p self's buffer; evictions are reported as drops.
  /// Returns true if stored.
  bool store(Host& self, msg::Message m, bool own) const;

 private:
  const DestinationOracle& oracle_;
  RouterKind kind_ = RouterKind::kOther;
};

}  // namespace dtnic::routing
