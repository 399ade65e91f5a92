#include "core/reputation.h"

#include <algorithm>

#include "util/assert.h"

namespace dtnic::core {

namespace {

double clamp_rating(double r, const DrmParams& drm) {
  return std::clamp(r, 0.0, drm.rating_max);
}

double with_noise(double r, const DrmParams& drm, util::Rng& rng) {
  if (drm.rating_noise_sd <= 0.0) return clamp_rating(r, drm);
  return clamp_rating(r + rng.normal(0.0, drm.rating_noise_sd), drm);
}

constexpr auto node_less = [](const auto& rec, NodeId node) { return rec.node < node; };

}  // namespace

const RatingStore::Record* RatingStore::find(NodeId node) const {
  const auto it = std::lower_bound(records_.begin(), records_.end(), node, node_less);
  return it != records_.end() && it->node == node ? &*it : nullptr;
}

double RatingStore::merged(double own, double remote) const {
  return (1.0 - params_.alpha) * clamp_rating(remote, params_) + params_.alpha * own;
}

void RatingStore::add_message_rating(NodeId rated, double rating) {
  DTNIC_REQUIRE(rated.valid());
  DTNIC_REQUIRE_MSG(rating >= 0.0 && rating <= params_.rating_max,
                    "rating outside [0, rating_max]");
  auto it = std::lower_bound(records_.begin(), records_.end(), rated, node_less);
  if (it == records_.end() || it->node != rated) it = records_.insert(it, Record{rated});
  it->first_hand_sum += rating;
  it->first_hand_count += 1;
  // Case 1: the node rating is the running mean of message ratings.
  it->value = it->first_hand_sum / static_cast<double>(it->first_hand_count);
}

void RatingStore::merge_remote(NodeId rated, double remote_rating) {
  DTNIC_REQUIRE(rated.valid());
  auto it = std::lower_bound(records_.begin(), records_.end(), rated, node_less);
  if (it == records_.end() || it->node != rated) {
    // No prior opinion: adopt the remote view.
    records_.insert(it, Record{.node = rated, .value = clamp_rating(remote_rating, params_)});
    return;
  }
  it->value = merged(it->value, remote_rating);
}

void RatingStore::merge_from(const RatingStore& peer, NodeId skip_a, NodeId skip_b) {
  DTNIC_REQUIRE(&peer != this);
  const auto skipped = [&](const Record& r) { return r.node == skip_a || r.node == skip_b; };
  // Pass 1: merge the opinions we share in place; count the ones we lack.
  std::size_t added = 0;
  auto own = records_.begin();
  for (const Record& theirs : peer.records_) {
    if (skipped(theirs)) continue;
    while (own != records_.end() && own->node < theirs.node) ++own;
    if (own != records_.end() && own->node == theirs.node) {
      own->value = merged(own->value, theirs.value);
    } else {
      ++added;
    }
  }
  if (added == 0) return;
  // Pass 2: grow once, then fill from the back. `out` runs ahead of `kept`
  // by the number of new records still to place; once they meet, the prefix
  // is already in position.
  std::size_t kept = records_.size();
  records_.resize(kept + added);
  std::size_t out = records_.size();
  std::size_t next = peer.records_.size();
  while (out > kept) {
    const Record& theirs = peer.records_[next - 1];
    if (skipped(theirs)) {
      --next;
    } else if (kept > 0 && records_[kept - 1].node >= theirs.node) {
      if (records_[kept - 1].node == theirs.node) --next;  // merged in pass 1
      records_[--out] = records_[--kept];
    } else {
      records_[--out] = Record{.node = theirs.node, .value = clamp_rating(theirs.value, params_)};
      --next;
    }
  }
}

double RatingStore::rating_of(NodeId node) const {
  const Record* rec = find(node);
  return rec != nullptr ? rec->value : params_.default_rating;
}

bool RatingStore::trusted(NodeId node) const {
  if (!params_.enabled) return true;
  return rating_of(node) >= params_.trust_threshold;
}

double MessageJudgement::truthful_fraction(const msg::Message& m, NodeId annotator) {
  const auto tags = m.annotations_by(annotator);
  if (tags.empty()) return 1.0;
  std::size_t truthful = 0;
  for (const msg::Annotation& a : tags) {
    if (a.truthful) ++truthful;
  }
  return static_cast<double>(truthful) / static_cast<double>(tags.size());
}

double MessageJudgement::rate_source(const msg::Message& m, const DrmParams& drm,
                                     util::Rng& rng) {
  const double r_t = drm.rating_max * truthful_fraction(m, m.source());
  const double r_q = drm.rating_max * m.quality();
  const double r = 0.5 * (r_t * drm.confidence) + 0.5 * r_q;
  return with_noise(r, drm, rng);
}

double MessageJudgement::rate_annotator(const msg::Message& m, NodeId annotator,
                                        const DrmParams& drm, util::Rng& rng) {
  if (m.annotations_by(annotator).empty()) return drm.default_rating;
  const double r_t = drm.rating_max * truthful_fraction(m, annotator);
  return with_noise(r_t * drm.confidence, drm, rng);
}

double award_factor(const DrmParams& drm, const std::vector<msg::PathRating>& path_ratings,
                    double deliverer_rating) {
  const double own = std::clamp(deliverer_rating, 0.0, drm.rating_max) / drm.rating_max;
  if (!drm.enabled) return 1.0;
  if (path_ratings.empty()) return own;
  double sum = 0.0;
  for (const msg::PathRating& r : path_ratings) {
    sum += std::clamp(r.rating, 0.0, drm.rating_max) / drm.rating_max;
  }
  const double path_mean = sum / static_cast<double>(path_ratings.size());
  return (1.0 - drm.alpha) * path_mean + drm.alpha * own;
}

}  // namespace dtnic::core
