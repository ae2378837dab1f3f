#include "workload.h"

#include <algorithm>

#include "data/datasets.h"
#include "util/macros.h"

namespace rtb::perfbench {
namespace {

// Independent generator streams per purpose, derived from the run's seed.
constexpr uint64_t kDataStream = 0x0D47A5E7ULL;
constexpr uint64_t kRequestStream = 0x5EA4C4E5ULL;
constexpr uint64_t kQueryStream = 0x0E4E47ULL;

// SEARCH rectangles are 0.02 x 0.02 (about 6 nodes per query at fanout 50).
constexpr double kQuerySide = 0.02;

model::QueryClass HotspotQueries() {
  model::ClusterParams params;  // 16 Zipf(1.0) hotspots, spread 0.05.
  params.placement_seed = 1;    // Fixed: only the query stream follows --seed.
  return model::QueryClass::Clustered(kQuerySide, kQuerySide, params);
}

uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"search_resident",
       "Read-only region SEARCH on a 60k-object tree that the 4096-frame "
       "pool holds whole, so time goes to the network, the admission loop "
       "and rtree scanning, and a storage or WAL change should not move it.",
       60000, 50, 4096, false, 0.0, 0.0,
       model::QueryClass::UniformRegion(kQuerySide, kQuerySide), 130000.0,
       0.5, 0},
      {"search_cold",
       "Read-only SEARCH at Zipf-weighted hotspots on a 200k-object "
       "file-backed tree 30 times larger than its 128-frame pool: the "
       "paper's buffered regime, where pool misses and page-store reads "
       "(served by the OS page cache) do the work.",
       200000, 50, 128, false, 0.0, 0.0, HotspotQueries(), 45000.0, 0.5, 0},
      {"churn_wal",
       "60% SEARCH, 20% INSERT, 20% DELETE at a level tree size with the "
       "WAL on and a pool of a quarter of the tree, so the update executor, "
       "WAL commit and writeback dominate and share drains with searches.",
       60000, 50, 300, true, 0.2, 0.2,
       model::QueryClass::UniformRegion(kQuerySide, kQuerySide), 1000.0,
       0.9, 12000},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::vector<geom::Rect> MakeDataset(const WorkloadDef& def, uint64_t seed) {
  Rng rng(Mix64(seed ^ kDataStream));
  return data::GenerateUniformPoints(def.objects, &rng);
}

RequestStream::RequestStream(const WorkloadDef& def, uint64_t seed,
                             const std::vector<geom::Rect>& dataset)
    : def_(def),
      rng_(Mix64(seed ^ kRequestStream)),
      query_rng_(Mix64(seed ^ kQueryStream)),
      next_id_(dataset.size()) {
  auto gen = sim::MakeGenerator(def.query, sim::GeneratorContext{});
  RTB_CHECK(gen.ok());
  queries_ = std::move(*gen);
  if (def.delete_frac > 0.0) {
    deletable_.reserve(dataset.size());
    for (size_t i = 0; i < dataset.size(); ++i) {
      deletable_.emplace_back(i, dataset[i]);
    }
  }
}

Request RequestStream::Next() {
  const uint64_t pos = size_++;
  while (!recent_.empty() && recent_.front().pos + kDeleteLag <= pos) {
    deletable_.emplace_back(recent_.front().id, recent_.front().rect);
    recent_.pop_front();
  }
  Request req;
  const double u = rng_.NextDouble();
  if (u < def_.insert_frac) {
    req.op = Op::kInsert;
    const double x = rng_.NextDouble();
    const double y = rng_.NextDouble();
    req.rect = geom::Rect(x, y, x, y);
    req.id = next_id_++;
    recent_.push_back(Recent{pos, req.id, req.rect});
    ++inserts_;
  } else if (u < def_.insert_frac + def_.delete_frac) {
    RTB_CHECK(!deletable_.empty());
    req.op = Op::kDelete;
    const size_t victim = rng_.UniformInt(deletable_.size());
    req.id = deletable_[victim].first;
    req.rect = deletable_[victim].second;
    deletable_[victim] = deletable_.back();
    deletable_.pop_back();
    ++deletes_;
  } else {
    req.op = Op::kSearch;
    req.rect = queries_->Next(query_rng_);
  }
  return req;
}

std::vector<std::pair<rtree::ObjectId, geom::Rect>> RequestStream::LiveSet()
    const {
  std::vector<std::pair<rtree::ObjectId, geom::Rect>> live = deletable_;
  for (const Recent& r : recent_) live.emplace_back(r.id, r.rect);
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return live;
}

uint64_t ResultChecksum(const std::vector<rtree::ObjectId>& ids) {
  uint64_t sum = 0;
  for (const rtree::ObjectId id : ids) sum += Mix64(id);
  return sum;
}

BruteForce::BruteForce(
    std::vector<std::pair<rtree::ObjectId, geom::Rect>> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const auto& a, const auto& b) {
              return a.second.lo.x < b.second.lo.x;
            });
  lo_x_.reserve(entries_.size());
  for (const auto& [id, r] : entries_) {
    lo_x_.push_back(r.lo.x);
    max_width_ = std::max(max_width_, r.hi.x - r.lo.x);
  }
}

std::vector<rtree::ObjectId> BruteForce::Search(const geom::Rect& q) const {
  std::vector<rtree::ObjectId> out;
  const auto begin =
      std::lower_bound(lo_x_.begin(), lo_x_.end(), q.lo.x - max_width_);
  const auto end = std::upper_bound(lo_x_.begin(), lo_x_.end(), q.hi.x);
  for (auto it = begin; it < end; ++it) {
    const auto& [id, r] = entries_[it - lo_x_.begin()];
    if (r.Intersects(q)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rtb::perfbench
