/// Allocation-count probe: replaces the global allocator with a counting
/// shim and pins the steady-state hot paths — moving contact scan, routing
/// exchange/plan tick, event push/pop churn — at ZERO heap allocations once
/// warmed up. Built as its own binary so the operator new replacement cannot
/// leak into the main suite; compiled to a skip under sanitizers (they own
/// the allocator, and the arena passes through there anyway).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/incentive_router.h"
#include "msg/buffer.h"
#include "msg/message.h"
#include "net/spatial_grid.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "sim/event_queue.h"
#include "util/arena.h"
#include "util/rng.h"

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define DTNIC_ALLOC_PROBE_ACTIVE 1
#else
#define DTNIC_ALLOC_PROBE_ACTIVE 0
#endif

#if DTNIC_ALLOC_PROBE_ACTIVE

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // DTNIC_ALLOC_PROBE_ACTIVE

namespace dtnic {
namespace {

std::uint64_t allocs_now() {
#if DTNIC_ALLOC_PROBE_ACTIVE
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

bool probe_active() {
  return DTNIC_ALLOC_PROBE_ACTIVE != 0 && util::arena::enabled();
}

TEST(AllocSteadyState, EventQueueTickIsAllocationFree) {
  if (!probe_active()) GTEST_SKIP() << "probe needs non-sanitized build with arena on";
  sim::EventQueue q;
  util::Rng rng(5);
  int fired = 0;
  // Warm: reach steady slab/bucket capacity.
  for (int i = 0; i < 4096; ++i) {
    (void)q.push(util::SimTime::seconds(rng.uniform(0.0, 200.0)), [&fired] { ++fired; });
  }
  double t = 200.0;
  for (int i = 0; i < 4096; ++i) {
    auto popped = q.pop();
    popped.fn();
    t += 0.1;
    (void)q.push(util::SimTime::seconds(t + rng.uniform(0.0, 100.0)), [&fired] { ++fired; });
  }
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 4096; ++i) {
    auto popped = q.pop();
    popped.fn();
    t += 0.1;
    (void)q.push(util::SimTime::seconds(t + rng.uniform(0.0, 100.0)), [&fired] { ++fired; });
  }
  EXPECT_EQ(allocs_now() - before, 0u) << "event push/pop churn must not touch the heap";
  EXPECT_GT(fired, 0);
}

TEST(AllocSteadyState, MovingContactScanIsAllocationFree) {
  if (!probe_active()) GTEST_SKIP() << "probe needs non-sanitized build with arena on";
  util::Rng rng(17);
  const int n = 200;
  const double side = 1414.0;  // ~100 nodes/km^2
  net::SpatialGrid grid(100.0);
  std::vector<std::size_t> slots;
  std::vector<double> px(n), py(n), vx(n), vy(n);
  for (int i = 0; i < n; ++i) {
    px[i] = rng.uniform(0.0, side);
    py[i] = rng.uniform(0.0, side);
    vx[i] = rng.uniform(-7.5, 7.5);
    vy[i] = rng.uniform(-7.5, 7.5);
    slots.push_back(grid.insert(util::NodeId(static_cast<std::uint32_t>(i)), {px[i], py[i]}));
  }
  std::vector<net::SpatialGrid::Pair> pairs;
  std::size_t total = 0;
  const auto tick = [&] {
    for (int i = 0; i < n; ++i) {
      px[i] += vx[i];
      py[i] += vy[i];
      if (px[i] < 0.0 || px[i] > side) vx[i] = -vx[i];
      if (py[i] < 0.0 || py[i] > side) vy[i] = -vy[i];
      grid.update_slot(slots[static_cast<std::size_t>(i)], {px[i], py[i]});
    }
    grid.pairs_within(100.0, pairs);
    total += pairs.size();
  };
  // Warm until cell pool / pair vectors / arena free lists reach capacity.
  for (int w = 0; w < 400; ++w) tick();
  const std::uint64_t before = allocs_now();
  for (int w = 0; w < 100; ++w) tick();
  EXPECT_EQ(allocs_now() - before, 0u)
      << "steady-state scan tick (move + enumerate) must not touch the heap";
  EXPECT_GT(total, 0u);
}

TEST(AllocSteadyState, RoutingExchangeTickIsAllocationFree) {
  if (!probe_active()) GTEST_SKIP() << "probe needs non-sanitized build with arena on";
  // A ring of incentive hosts exchanging interest/reputation state and
  // producing forward plans — the per-contact routing hot path, without the
  // transfer layer (message copies are allowed to allocate; planning isn't).
  util::Rng rng(11);
  routing::StaticInterestOracle oracle;
  core::IncentiveWorld world;
  std::vector<msg::KeywordId> pool;
  for (int k = 0; k < 64; ++k) {
    pool.push_back(msg::KeywordId(static_cast<util::KeywordId::underlying>(k)));
  }
  world.keyword_pool = &pool;
  std::vector<std::unique_ptr<routing::Host>> hosts;
  world.neighbors = [&hosts](routing::NodeId id, std::vector<routing::Host*>& out) {
    out.clear();
    const std::size_t count = hosts.size();
    const std::size_t i = id.value();
    out.push_back(hosts[(i + 1) % count].get());
    out.push_back(hosts[(i + count - 1) % count].get());
  };
  // Fast decay and a coarse prune threshold: every contact acquires transient
  // interests and prunes stale ones, so table slots churn in steady state.
  routing::chitchat::ChitChatParams chitchat;
  chitchat.decay_beta = 0.05;
  chitchat.prune_epsilon = 0.01;
  constexpr std::uint64_t kMB = 1024 * 1024;
  const auto t0 = util::SimTime::zero();
  util::MessageId::underlying next_id = 0;
  for (int i = 0; i < 8; ++i) {
    const routing::NodeId id(static_cast<util::NodeId::underlying>(i));
    auto host = std::make_unique<routing::Host>(id, 256 * kMB);
    std::vector<msg::KeywordId> interests;
    for (int j = 0; j < 3; ++j) interests.push_back(pool[rng.below(pool.size())]);
    oracle.set_interests(id, interests);
    auto router = std::make_unique<core::IncentiveRouter>(
        oracle, chitchat, util::SimTime::seconds(5.0), &world, core::BehaviorProfile{},
        rng.fork(static_cast<std::uint64_t>(i)));
    router->set_direct_interests(interests, t0);
    // First-hand opinions on overlapping node sets: warm-up merges spread
    // them around the ring, so every store grows through sorted inserts.
    for (int j = 0; j < 12; ++j) {
      router->ratings().add_message_rating(
          routing::NodeId(static_cast<util::NodeId::underlying>(100 + (i * 7 + j) % 50)),
          rng.uniform(2.5, 5.0));
    }
    host->set_router(std::move(router));
    for (int m = 0; m < 16; ++m) {
      msg::Message msg(util::MessageId(next_id++), id, t0, kMB / 4 + rng.below(kMB / 4),
                       static_cast<msg::Priority>(rng.range(1, 3)), rng.uniform(0.0, 1.0));
      for (int a = 0; a < 3; ++a) {
        (void)msg.annotate(msg::Annotation{pool[rng.below(pool.size())], id, true});
      }
      (void)host->buffer().add(std::move(msg));
    }
    hosts.push_back(std::move(host));
  }
  std::vector<routing::ForwardPlan> plans;
  double t = 0.0;
  std::size_t pair = 0;
  std::size_t pruned = 0;  // slots dropped by decay, summed over contacts
  const auto decay = [&](routing::Host& h, util::SimTime now) {
    const auto& table = routing::ChitChatRouter::of(h)->interests();
    const std::size_t before = table.size();
    h.router().pre_exchange(h, now, {});
    pruned += before - std::min(before, table.size());
  };
  const auto contact = [&] {
    plans.clear();
    routing::Host& a = *hosts[pair % hosts.size()];
    routing::Host& b = *hosts[(pair + 1) % hosts.size()];
    ++pair;
    t += 5.0;
    const auto now = util::SimTime::seconds(t);
    decay(a, now);
    decay(b, now);
    a.router().on_link_up(a, b, now, 50.0);
    b.router().on_link_up(b, a, now, 50.0);
    a.router().plan_into(a, b, now, plans);
    b.router().plan_into(b, a, now, plans);
    a.router().on_link_down(a, b, now);
    b.router().on_link_down(b, a, now);
  };
  for (int w = 0; w < 256; ++w) contact();
  const std::size_t pruned_warm = pruned;
  const std::uint64_t before = allocs_now();
  for (int w = 0; w < 64; ++w) contact();
  EXPECT_EQ(allocs_now() - before, 0u)
      << "steady-state exchange + plan tick must not touch the heap";
  // The window really exercised table pruning and regrowth, and the merges
  // spread every first-hand opinion to every store.
  EXPECT_GT(pruned, pruned_warm);
  for (const auto& host : hosts) {
    EXPECT_EQ(core::IncentiveRouter::of(*host)->ratings().size(), 50u);
  }
}

TEST(AllocSteadyState, BufferChurnRecyclesThroughArena) {
  if (!probe_active()) GTEST_SKIP() << "probe needs non-sanitized build with arena on";
  // Message construction itself may allocate (per-copy vectors are plain
  // heap by design); the buffer's own node storage must recycle through the
  // arena — pinned here as "no new chunks once warm".
  constexpr std::uint64_t kMB = 1024 * 1024;
  msg::MessageBuffer buf(64 * kMB);
  util::Rng rng(3);
  util::MessageId::underlying next = 0;
  const auto churn = [&] {
    msg::Message m(util::MessageId(++next), util::NodeId(1), util::SimTime::zero(),
                   kMB / 2 + rng.below(kMB), msg::Priority::kMedium, 0.5);
    const util::MessageId id = m.id();
    (void)buf.add(std::move(m));
    (void)buf.remove(id);
  };
  for (int i = 0; i < 2000; ++i) churn();
  const auto before = util::arena::thread_stats();
  for (int i = 0; i < 2000; ++i) churn();
  const auto after = util::arena::thread_stats();
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs)
      << "buffer node churn must recycle pooled blocks, not grow the arena";
  EXPECT_GT(after.pool_allocs, before.pool_allocs);
}

}  // namespace
}  // namespace dtnic
