#include "text/sparse_vector.h"

#include <algorithm>
#include <cmath>

namespace adrec::text {

SparseVector SparseVector::FromUnsorted(std::vector<SparseEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.id < b.id;
            });
  // Merge duplicate ids in place: the input buffer becomes the vector.
  size_t kept = 0;
  for (const SparseEntry& e : entries) {
    if (kept > 0 && entries[kept - 1].id == e.id) {
      entries[kept - 1].weight += e.weight;
    } else {
      entries[kept++] = e;
    }
  }
  entries.resize(kept);
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

void SparseVector::Add(uint32_t id, double weight) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                             [](const SparseEntry& e, uint32_t target) {
                               return e.id < target;
                             });
  if (it != entries_.end() && it->id == id) {
    it->weight += weight;
  } else {
    entries_.insert(it, SparseEntry{id, weight});
  }
}

double SparseVector::Get(uint32_t id) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id,
                             [](const SparseEntry& e, uint32_t target) {
                               return e.id < target;
                             });
  return (it != entries_.end() && it->id == id) ? it->weight : 0.0;
}

double SparseVector::Dot(const SparseVector& other) const {
  double sum = 0.0;
  size_t i = 0, j = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    const uint32_t a = entries_[i].id;
    const uint32_t b = other.entries_[j].id;
    if (a == b) {
      sum += entries_[i].weight * other.entries_[j].weight;
      ++i;
      ++j;
    } else if (a < b) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

double SparseVector::Norm() const {
  double sumsq = 0.0;
  for (const SparseEntry& e : entries_) sumsq += e.weight * e.weight;
  return std::sqrt(sumsq);
}

double SparseVector::Cosine(const SparseVector& other) const {
  const double na = Norm();
  const double nb = other.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

double SparseVector::JaccardSupport(const SparseVector& other) const {
  size_t i = 0, j = 0, both = 0;
  while (i < entries_.size() && j < other.entries_.size()) {
    const uint32_t a = entries_[i].id;
    const uint32_t b = other.entries_[j].id;
    if (a == b) {
      ++both;
      ++i;
      ++j;
    } else if (a < b) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t either = entries_.size() + other.entries_.size() - both;
  return either == 0 ? 0.0 : static_cast<double>(both) / either;
}

void SparseVector::Scale(double factor) {
  for (SparseEntry& e : entries_) e.weight *= factor;
}

void SparseVector::AddScaled(const SparseVector& other, double factor) {
  std::vector<SparseEntry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  size_t i = 0, j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    if (j >= other.entries_.size() ||
        (i < entries_.size() && entries_[i].id < other.entries_[j].id)) {
      merged.push_back(entries_[i++]);
    } else if (i >= entries_.size() ||
               other.entries_[j].id < entries_[i].id) {
      merged.push_back(
          SparseEntry{other.entries_[j].id, other.entries_[j].weight * factor});
      ++j;
    } else {
      merged.push_back(SparseEntry{
          entries_[i].id,
          entries_[i].weight + other.entries_[j].weight * factor});
      ++i;
      ++j;
    }
  }
  entries_ = std::move(merged);
}

void SparseVector::NormalizeL2() {
  const double n = Norm();
  if (n > 0.0) Scale(1.0 / n);
}

void SparseVector::Prune(double epsilon) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [epsilon](const SparseEntry& e) {
                                  return std::abs(e.weight) < epsilon;
                                }),
                 entries_.end());
}

void SparseVector::TruncateTopK(size_t k) {
  if (entries_.size() <= k) return;
  std::vector<SparseEntry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.weight > b.weight;
            });
  sorted.resize(k);
  std::sort(sorted.begin(), sorted.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.id < b.id;
            });
  entries_ = std::move(sorted);
}

}  // namespace adrec::text
