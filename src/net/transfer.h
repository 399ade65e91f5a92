#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "sim/simulator.h"
#include "util/ids.h"

/// \file transfer.h
/// Bandwidth-limited store-and-forward transfers over active contacts.
/// A contact carries one transfer at a time (Bluetooth-style, per the demo
/// paper); duration = bytes / bitrate; a link that goes down mid-transfer
/// aborts the transfer and the receiver keeps nothing.

namespace dtnic::net {

using util::MessageId;
using util::NodeId;

class TransferManager {
 public:
  struct Transfer {
    NodeId from;
    NodeId to;
    MessageId message;
    std::uint64_t bytes = 0;
    util::SimTime started;
  };

  /// \p duration is the wall-clock (simulated) transfer time — the paper's
  /// hardware incentive factor is proportional to it.
  using CompleteFn = std::function<void(const Transfer&, util::SimTime duration)>;
  using AbortFn = std::function<void(const Transfer&)>;

  TransferManager(sim::Simulator& sim, double bitrate_bps);
  /// Cancels every pending completion event: those events capture `this`, so
  /// letting them outlive the manager would fire into freed memory.
  ~TransferManager();

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  void on_complete(CompleteFn fn) { complete_ = std::move(fn); }
  void on_abort(AbortFn fn) { abort_ = std::move(fn); }

  /// Contact lifecycle, driven by ConnectivityManager callbacks. Both are
  /// idempotent: a duplicate link_up for a tracked pair is a no-op that
  /// preserves any in-flight transfer (it must not reset the link), and a
  /// duplicate link_down is a no-op that cannot abort twice — required once
  /// boundary links can be reported by more than one contact source.
  void link_up(NodeId a, NodeId b);
  void link_down(NodeId a, NodeId b);

  /// Pure reads of the link table.
  [[nodiscard]] bool link_exists(NodeId a, NodeId b) const;
  [[nodiscard]] bool link_busy(NodeId a, NodeId b) const;
  /// Links currently tracked / transfers currently in flight (leak checks).
  [[nodiscard]] std::size_t links_tracked() const { return links_.size(); }
  [[nodiscard]] std::size_t transfers_in_flight() const;

  /// Begin a transfer; returns false if the link is absent or busy.
  bool start(NodeId from, NodeId to, MessageId message, std::uint64_t bytes);

  /// Duration a transfer of \p bytes takes on this radio.
  [[nodiscard]] util::SimTime duration_for(std::uint64_t bytes) const;

  [[nodiscard]] std::uint64_t transfers_started() const { return started_; }
  [[nodiscard]] std::uint64_t transfers_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t transfers_aborted() const { return aborted_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const { return bytes_delivered_; }

 private:
  struct InFlight {
    Transfer transfer;
    sim::EventId completion;
  };
  struct LinkState {
    std::optional<InFlight> in_flight;
  };

  static std::uint64_t pair_key(NodeId a, NodeId b);
  void finish(std::uint64_t key);

  sim::Simulator& sim_;
  double bitrate_bps_;
  std::unordered_map<std::uint64_t, LinkState> links_;
  CompleteFn complete_;
  AbortFn abort_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace dtnic::net
