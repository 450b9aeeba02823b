#include "ml/classifier.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/parallel.hpp"

namespace ltefp::ml {

void Classifier::fit(const Dataset& train) {
  const features::DatasetMatrix matrix(train);
  fit_rows(matrix, matrix.all_rows());
}

void Classifier::fit_rows(const features::DatasetMatrix&, std::span<const std::uint32_t>) {
  throw std::logic_error(std::string(name()) + ": no row-view training");
}

int Classifier::predict(const FeatureVector& x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::vector<int> Classifier::predict_rows(const features::DatasetMatrix& data,
                                          std::span<const std::uint32_t> rows) const {
  // Chunk-parallel with one gather scratch per chunk: each prediction
  // lands in its own slot, so output order matches row order exactly.
  std::vector<int> out(rows.size());
  parallel_for(rows.size(), /*chunk=*/16, [&](std::size_t begin, std::size_t end) {
    FeatureVector x(data.cols());
    for (std::size_t i = begin; i < end; ++i) {
      data.gather_row(rows[i], x);
      out[i] = predict(x);
    }
  });
  return out;
}

StandardizedRows standardize_rows(const features::DatasetMatrix& train,
                                  std::span<const std::uint32_t> rows,
                                  features::Standardizer& standardizer) {
  standardizer.fit_rows(train, rows);
  StandardizedRows out;
  out.dims = train.cols();
  out.num_classes = static_cast<int>(train.class_histogram(rows).size());
  out.values.resize(rows.size() * out.dims);
  out.labels.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::span<double> z(out.values.data() + i * out.dims, out.dims);
    train.gather_row(rows[i], z);
    standardizer.transform(z, z);
    out.labels.push_back(train.label(rows[i]));
  }
  return out;
}

}  // namespace ltefp::ml
