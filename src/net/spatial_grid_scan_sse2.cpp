#include "net/spatial_grid.h"

/// \file spatial_grid_scan_sse2.cpp
/// SSE2 distance kernel, compiled whenever the target has SSE2 (baseline
/// x86-64): two cell segments per iteration, each as two 2-lane vectors,
/// give an 8-wide distance² test whose compare masks accumulate into one
/// per-point hit word. Compiled with -ffp-contract=off; the per-lane
/// arithmetic (sub, sub, mul, mul, add) is the exact IEEE sequence of the
/// scalar kernel — and the √ happens once for both kernels inside
/// sort_pairs — so hits and distances are bit-identical.

#ifdef __SSE2__

#include <emmintrin.h>

#include <algorithm>
#include <cmath>

namespace dtnic::net {

namespace {

/// Intra-cell mask for entry i over the cell's own 4 lanes: keep only lanes
/// j > i, so each unordered in-cell pair is tested exactly once and the
/// self-pair never.
constexpr std::uint32_t kIntraMask[4] = {0xe, 0xc, 0x8, 0x0};

}  // namespace

void SpatialGrid::scan_kernel_sse2(const ScanView& view, double r2, std::vector<Pair>& out) {
  const __m128d vr2 = _mm_set1_pd(r2);
  // Emission staging: hits land in an L1-resident stack buffer and reach
  // `out` in bulk flushes, so the decode path pays one store per pair
  // instead of a capacity check + size update per push_back.
  constexpr std::uint32_t kStage = 128;
  Pair staged[kStage];
  std::uint32_t staged_n = 0;
  const auto flush = [&staged, &staged_n, &out] {
    out.insert(out.end(), staged, staged + staged_n);
    staged_n = 0;
  };
  for (std::size_t c = 0; c < view.pool_size; ++c) {
    const std::uint32_t n = view.counts[c];
    if (n == 0) continue;
    const ScanBlock& cell = view.blocks[c];
    const CellLinks& links = view.links[c];
    // Gather the candidate segments: the cell itself (segment 0, with the
    // intra mask keeping only j > i) plus its *present* half-neighborhood
    // directions, compacted to the front so absent directions cost no
    // distance work at all. The compaction is branchless — every direction
    // stores unconditionally at the write cursor, and only the cursor
    // increment is predicated — so the effectively random presence pattern
    // never touches the branch predictor. An odd segment count is padded
    // with the static all-dead block (its +inf lanes cannot pass the radius
    // test), giving ceil(live/2) 8-wide groups instead of a fixed three.
    // Overflow is detected from the L1-resident count array (value masked
    // by presence; the load itself is safe — index 0 is a valid pool slot);
    // any overflowing cell in the set routes the whole cell through the
    // scalar fallback — identical arithmetic, so no determinism seam.
    const ScanBlock* segs[6];
    std::uint32_t seg_cell[6];  // pool index per segment, for the id lookup
    segs[0] = &cell;
    seg_cell[0] = static_cast<std::uint32_t>(c);
    bool fallback = n > kInline;
    int m = 1;
    for (int k = 0; k < 4; ++k) {
      const std::int32_t h = links.half[k];
      const auto idx = static_cast<std::uint32_t>(h >= 0 ? h : 0);
      fallback |= (h >= 0) & (view.counts[idx] > kInline);
      segs[m] = &view.blocks[idx];
      seg_cell[m] = idx;
      m += static_cast<int>(h >= 0);
    }
    segs[m] = &kEmptyBlock;
    seg_cell[m] = 0;  // never read: dead lanes cannot hit
    if (fallback) {
      scan_cell_scalar(view, static_cast<std::uint32_t>(c), r2, out);
      continue;
    }
    // Each segment is two 2-lane halves; [s].x[0..1], [s].x[2..3].
    __m128d vx[6][2];
    __m128d vy[6][2];
    const int padded = (m + 1) & ~1;
    for (int s = 0; s < padded; ++s) {
      vx[s][0] = _mm_load_pd(segs[s]->x);
      vx[s][1] = _mm_load_pd(segs[s]->x + 2);
      vy[s][0] = _mm_load_pd(segs[s]->y);
      vy[s][1] = _mm_load_pd(segs[s]->y + 2);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const double xi_s = cell.x[i];
      const double yi_s = cell.y[i];
      const __m128d xi = _mm_set1_pd(xi_s);
      const __m128d yi = _mm_set1_pd(yi_s);
      // Accumulate every group's hit bits into one word — bit (8g + lane)
      // set means candidate lane `lane` of group g is within range — so the
      // whole point costs a single (mispredict-prone) branch instead of one
      // per group, and the common no-hit point falls through branch-free.
      std::uint32_t pm = 0;
      for (int s = 0, g = 0; s < m; s += 2, ++g) {
        std::uint32_t mask = 0;
        for (int h = 0; h < 4; ++h) {  // four 2-lane halves = 8 candidates
          const int seg = s + (h >> 1);
          const int part = h & 1;
          const __m128d dx = _mm_sub_pd(xi, vx[seg][part]);
          const __m128d dy = _mm_sub_pd(yi, vy[seg][part]);
          const __m128d d2 = _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));
          mask |= static_cast<std::uint32_t>(_mm_movemask_pd(_mm_cmple_pd(d2, vr2)))
                  << (2 * h);
        }
        if (s == 0) mask &= kIntraMask[i] | 0xf0u;
        pm |= mask << (8 * g);
      }
      if (pm == 0) continue;
      // Emission iterates the set bits in ascending order. d² is recomputed
      // per hit from the scalar lane values — the identical IEEE expression
      // the vector lanes evaluated (-ffp-contract=off), so the value is
      // bit-identical, and recomputing beats spilling the vector registers:
      // no stores on the no-hit path and no store-to-load-forwarding stall
      // on the hit path.
      const std::uint32_t ida = view.ids[c * kInline + i];
      if (staged_n + 24 > kStage) flush();  // a point adds ≤ 24 pairs
      do {
        const int lane = __builtin_ctz(pm);
        pm &= pm - 1;
        const int seg = lane >> 2;
        const int sub = lane & 3;
        const ScanBlock* sb = segs[seg];
        const double dx = xi_s - sb->x[sub];
        const double dy = yi_s - sb->y[sub];
        const double d2 = dx * dx + dy * dy;
        const std::uint32_t idb = view.ids[seg_cell[seg] * kInline + sub];
        const util::NodeId a{std::min(ida, idb)};
        const util::NodeId b{std::max(ida, idb)};
        staged[staged_n++] = Pair{a, b, d2};
      } while (pm != 0);
    }
  }
  flush();
  // Pairs leave the kernel carrying d²; sort_pairs applies the (scalar) √
  // during its scatter pass, one code path for both kernels.
}

}  // namespace dtnic::net

#endif  // __SSE2__
