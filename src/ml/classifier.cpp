#include "ml/classifier.hpp"

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

}  // namespace ltefp::ml
