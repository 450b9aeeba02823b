// Small 1-D convolutional neural network with softmax cross-entropy loss,
// standing in for the paper's CNN baseline (Table VIII: "Number of
// class = 3, LF = SCE").
//
// Architecture: the feature vector is treated as a length-D sequence;
// conv1d (kernel 3, same padding, ReLU) -> flatten -> dense -> softmax.
// Trained with mini-batch SGD + momentum. As the paper observes, on this
// small tabular data a CNN underperforms the Random Forest while costing
// far more compute.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "features/dataset.hpp"
#include "ml/classifier.hpp"

namespace ltefp::ml {

struct CnnConfig {
  int channels = 8;        // conv output channels
  int kernel = 3;          // conv kernel width (odd)
  double learning_rate = 0.05;
  double momentum = 0.9;
  int epochs = 60;
  int batch_size = 64;
  std::uint64_t seed = 1;
};

class Cnn1D final : public Classifier {
 public:
  explicit Cnn1D(CnnConfig config = {});

  void fit_rows(const features::DatasetMatrix& train,
                std::span<const std::uint32_t> rows) override;
  std::vector<double> predict_proba(const FeatureVector& x) const override;
  const char* name() const override { return "CNN"; }

 private:
  struct Activations {
    std::vector<double> conv;    // [channels * dims] post-ReLU
    std::vector<double> logits;  // [classes]
    std::vector<double> proba;   // [classes]
  };
  void forward(std::span<const double> std_x, Activations& act) const;

  CnnConfig config_;
  features::Standardizer standardizer_;
  int dims_ = 0;
  int num_classes_ = 0;
  // conv weights: [channel][kernel], bias per channel
  std::vector<std::vector<double>> conv_w_;
  std::vector<double> conv_b_;
  // dense: [class][channels * dims], bias per class
  std::vector<std::vector<double>> dense_w_;
  std::vector<double> dense_b_;
};

}  // namespace ltefp::ml
