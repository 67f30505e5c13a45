#include "cs/committee.h"

namespace drcell::cs {

InferenceCommittee::InferenceCommittee(std::vector<InferenceEnginePtr> members)
    : members_(std::move(members)) {
  DRCELL_CHECK_MSG(members_.size() >= 2,
                   "a committee needs at least two members");
  for (const auto& m : members_) DRCELL_CHECK(m != nullptr);
}

std::vector<Matrix> InferenceCommittee::infer_all(
    const PartialMatrix& observed) const {
  std::vector<Matrix> out(members_.size());
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  pool.parallel_for(members_.size(), [&](std::size_t i) {
    out[i] = members_[i]->infer(observed);
  });
  return out;
}

Matrix InferenceCommittee::disagreement(
    const std::vector<Matrix>& predictions) {
  DRCELL_CHECK_MSG(!predictions.empty(), "no predictions");
  const std::size_t m = predictions.front().rows();
  const std::size_t n = predictions.front().cols();
  // Structural precondition, not a per-element check: it must stay active in
  // release builds because the flat-index loops below index every member's
  // data() against the front member's extent.
  for (const auto& p : predictions)
    DRCELL_CHECK_MSG(p.rows() == m && p.cols() == n,
                     "committee members disagree on the matrix shape");

  const double count = static_cast<double>(predictions.size());
  Matrix mean(m, n);
  for (const auto& p : predictions) mean += p;
  mean *= 1.0 / count;

  Matrix var(m, n);
  for (const auto& p : predictions) {
    for (std::size_t i = 0; i < var.data().size(); ++i) {
      const double d = p.data()[i] - mean.data()[i];
      var.data()[i] += d * d;
    }
  }
  var *= 1.0 / count;
  return var;
}

}  // namespace drcell::cs
