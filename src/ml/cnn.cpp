#include "ml/cnn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace ltefp::ml {

Cnn1D::Cnn1D(CnnConfig config) : config_(config) {
  if (config_.kernel % 2 == 0) throw std::invalid_argument("Cnn1D: kernel must be odd");
}

void Cnn1D::forward(std::span<const double> std_x, Activations& act) const {
  const int half = config_.kernel / 2;
  act.conv.assign(static_cast<std::size_t>(config_.channels * dims_), 0.0);
  for (int ch = 0; ch < config_.channels; ++ch) {
    const auto& w = conv_w_[static_cast<std::size_t>(ch)];
    for (int pos = 0; pos < dims_; ++pos) {
      double z = conv_b_[static_cast<std::size_t>(ch)];
      for (int k = 0; k < config_.kernel; ++k) {
        const int src = pos + k - half;
        if (src < 0 || src >= dims_) continue;  // zero padding
        z += w[static_cast<std::size_t>(k)] * std_x[static_cast<std::size_t>(src)];
      }
      act.conv[static_cast<std::size_t>(ch * dims_ + pos)] = std::max(0.0, z);  // ReLU
    }
  }
  act.logits.assign(static_cast<std::size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    double z = dense_b_[static_cast<std::size_t>(c)];
    const auto& w = dense_w_[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < act.conv.size(); ++i) z += w[i] * act.conv[i];
    act.logits[static_cast<std::size_t>(c)] = z;
  }
  act.proba = act.logits;
  const double zmax = *std::max_element(act.proba.begin(), act.proba.end());
  double sum = 0.0;
  for (double& z : act.proba) {
    z = std::exp(z - zmax);
    sum += z;
  }
  for (double& z : act.proba) z /= sum;
}

void Cnn1D::fit_rows(const features::DatasetMatrix& train,
                     std::span<const std::uint32_t> rows) {
  if (rows.empty()) throw std::invalid_argument("Cnn1D::fit: empty dataset");
  const StandardizedRows xs = standardize_rows(train, rows, standardizer_);
  dims_ = static_cast<int>(xs.dims);
  num_classes_ = xs.num_classes;

  Rng rng(config_.seed);
  const auto he = [&](int fan_in) { return rng.normal(0.0, std::sqrt(2.0 / fan_in)); };
  conv_w_.assign(static_cast<std::size_t>(config_.channels),
                 std::vector<double>(static_cast<std::size_t>(config_.kernel)));
  conv_b_.assign(static_cast<std::size_t>(config_.channels), 0.0);
  for (auto& w : conv_w_) {
    for (double& v : w) v = he(config_.kernel);
  }
  const int flat = config_.channels * dims_;
  dense_w_.assign(static_cast<std::size_t>(num_classes_),
                  std::vector<double>(static_cast<std::size_t>(flat)));
  dense_b_.assign(static_cast<std::size_t>(num_classes_), 0.0);
  for (auto& w : dense_w_) {
    for (double& v : w) v = he(flat);
  }

  // Momentum buffers.
  auto conv_w_v = conv_w_;
  for (auto& w : conv_w_v) std::fill(w.begin(), w.end(), 0.0);
  std::vector<double> conv_b_v(conv_b_.size(), 0.0);
  auto dense_w_v = dense_w_;
  for (auto& w : dense_w_v) std::fill(w.begin(), w.end(), 0.0);
  std::vector<double> dense_b_v(dense_b_.size(), 0.0);

  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto batch = static_cast<std::size_t>(std::max(1, config_.batch_size));
  const int half = config_.kernel / 2;

  // Per-step buffers, sized once: a step only zeroes or overwrites them.
  Activations act;
  auto conv_w_g = conv_w_v;
  std::vector<double> conv_b_g(conv_b_.size());
  auto dense_w_g = dense_w_v;
  std::vector<double> dense_b_g(dense_b_.size());
  std::vector<double> dlogits(static_cast<std::size_t>(num_classes_));
  std::vector<double> dconv(static_cast<std::size_t>(flat));
  const auto zero = [](std::vector<double>& v) { std::fill(v.begin(), v.end(), 0.0); };
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    const double lr = config_.learning_rate / std::sqrt(1.0 + static_cast<double>(epoch) / 10.0);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t stop = std::min(order.size(), start + batch);

      for (auto& w : conv_w_g) zero(w);
      zero(conv_b_g);
      for (auto& w : dense_w_g) zero(w);
      zero(dense_b_g);

      for (std::size_t i = start; i < stop; ++i) {
        const std::size_t idx = order[i];
        const auto x = xs.row(idx);
        forward(x, act);
        const int y = xs.labels[idx];

        // dL/dlogits = proba - onehot
        std::copy(act.proba.begin(), act.proba.end(), dlogits.begin());
        dlogits[static_cast<std::size_t>(y)] -= 1.0;

        // Dense layer gradients and backprop into conv activations.
        zero(dconv);
        for (int c = 0; c < num_classes_; ++c) {
          const double dz = dlogits[static_cast<std::size_t>(c)];
          auto& gw = dense_w_g[static_cast<std::size_t>(c)];
          const auto& w = dense_w_[static_cast<std::size_t>(c)];
          for (std::size_t j = 0; j < act.conv.size(); ++j) {
            gw[j] += dz * act.conv[j];
            dconv[j] += dz * w[j];
          }
          dense_b_g[static_cast<std::size_t>(c)] += dz;
        }

        // ReLU backprop + conv gradients.
        for (int ch = 0; ch < config_.channels; ++ch) {
          auto& gw = conv_w_g[static_cast<std::size_t>(ch)];
          for (int pos = 0; pos < dims_; ++pos) {
            const std::size_t j = static_cast<std::size_t>(ch * dims_ + pos);
            if (act.conv[j] <= 0.0) continue;  // ReLU gate
            const double dz = dconv[j];
            for (int k = 0; k < config_.kernel; ++k) {
              const int src = pos + k - half;
              if (src < 0 || src >= dims_) continue;
              gw[static_cast<std::size_t>(k)] += dz * x[static_cast<std::size_t>(src)];
            }
            conv_b_g[static_cast<std::size_t>(ch)] += dz;
          }
        }
      }

      const double scale = lr / static_cast<double>(stop - start);
      const auto update = [&](std::vector<double>& w, std::vector<double>& v,
                              const std::vector<double>& g) {
        for (std::size_t j = 0; j < w.size(); ++j) {
          v[j] = config_.momentum * v[j] - scale * g[j];
          w[j] += v[j];
        }
      };
      for (int ch = 0; ch < config_.channels; ++ch) {
        update(conv_w_[static_cast<std::size_t>(ch)], conv_w_v[static_cast<std::size_t>(ch)],
               conv_w_g[static_cast<std::size_t>(ch)]);
      }
      update(conv_b_, conv_b_v, conv_b_g);
      for (int c = 0; c < num_classes_; ++c) {
        update(dense_w_[static_cast<std::size_t>(c)], dense_w_v[static_cast<std::size_t>(c)],
               dense_w_g[static_cast<std::size_t>(c)]);
      }
      update(dense_b_, dense_b_v, dense_b_g);
    }
  }
}

std::vector<double> Cnn1D::predict_proba(const FeatureVector& x) const {
  if (dense_w_.empty()) throw std::logic_error("Cnn1D: not trained");
  FeatureVector z(x.size());
  standardizer_.transform(x, z);
  Activations act;
  forward(z, act);
  return act.proba;
}

}  // namespace ltefp::ml
