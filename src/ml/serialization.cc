#include "ml/serialization.h"

#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"

namespace omnifair {
namespace {

// --- Tree-structure validation ----------------------------------------------
//
// Both tree builders append child nodes after their parent, so in any file
// this library wrote every split satisfies left > i && right > i. Enforcing
// that on load (plus range and feature checks) guarantees Predict terminates
// and never indexes out of bounds, whatever bytes were in the file.

Status ValidateDtNodes(const std::vector<DecisionTreeModel::Node>& nodes) {
  const int n = static_cast<int>(nodes.size());
  for (int i = 0; i < n; ++i) {
    const auto& node = nodes[i];
    if (node.is_leaf) continue;
    if (node.feature < 0 || node.left <= i || node.right <= i ||
        node.left >= n || node.right >= n) {
      return Status::InvalidArgument(
          "tree node " + std::to_string(i) + " has invalid children/feature (" +
          std::to_string(node.left) + ", " + std::to_string(node.right) +
          ", feature " + std::to_string(node.feature) + ") in a " +
          std::to_string(n) + "-node tree");
    }
  }
  return Status::Ok();
}

Status ValidateGbdtNodes(const std::vector<GbdtTreeNode>& nodes) {
  const int n = static_cast<int>(nodes.size());
  for (int i = 0; i < n; ++i) {
    const auto& node = nodes[i];
    if (node.is_leaf) continue;
    if (node.feature < 0 || node.left <= i || node.right <= i ||
        node.left >= n || node.right >= n) {
      return Status::InvalidArgument(
          "gbdt node " + std::to_string(i) + " has invalid children/feature (" +
          std::to_string(node.left) + ", " + std::to_string(node.right) +
          ", feature " + std::to_string(node.feature) + ") in a " +
          std::to_string(n) + "-node tree");
    }
  }
  return Status::Ok();
}

// --- Binary codec ------------------------------------------------------------

enum BinaryFamilyTag : uint8_t {
  kTagLr = 1,
  kTagNb = 2,
  kTagDt = 3,
  kTagRf = 4,
  kTagGbdt = 5,
  kTagMlp = 6,
};

void WriteDtNodesBinary(BinaryWriter& writer,
                        const std::vector<DecisionTreeModel::Node>& nodes) {
  writer.U64(nodes.size());
  for (const auto& node : nodes) {
    writer.U8(node.is_leaf ? 1 : 0);
    if (node.is_leaf) {
      writer.F64(node.probability);
    } else {
      writer.I32(node.feature);
      writer.F64(node.threshold);
      writer.I32(node.left);
      writer.I32(node.right);
    }
  }
}

Status ReadDtNodesBinary(BinaryReader& reader,
                         std::vector<DecisionTreeModel::Node>* nodes) {
  uint64_t count = 0;
  if (!reader.U64(&count)) return reader.status();
  // Each node is at least 9 bytes; a bigger count cannot fit what remains.
  if (count > reader.remaining()) {
    return Status::DataLoss("tree node count " + std::to_string(count) +
                            " exceeds payload at byte " +
                            std::to_string(reader.offset()));
  }
  nodes->resize(static_cast<size_t>(count));
  for (auto& node : *nodes) {
    uint8_t is_leaf = 0;
    if (!reader.U8(&is_leaf)) return reader.status();
    node.is_leaf = is_leaf != 0;
    if (node.is_leaf) {
      if (!reader.F64(&node.probability)) return reader.status();
    } else {
      int32_t feature = 0;
      int32_t left = 0;
      int32_t right = 0;
      if (!reader.I32(&feature) || !reader.F64(&node.threshold) ||
          !reader.I32(&left) || !reader.I32(&right)) {
        return reader.status();
      }
      node.feature = feature;
      node.left = left;
      node.right = right;
    }
  }
  return ValidateDtNodes(*nodes);
}

void WriteGbdtNodesBinary(BinaryWriter& writer,
                          const std::vector<GbdtTreeNode>& nodes) {
  writer.U64(nodes.size());
  for (const auto& node : nodes) {
    writer.U8(node.is_leaf ? 1 : 0);
    if (node.is_leaf) {
      writer.F64(node.value);
    } else {
      writer.I32(node.feature);
      writer.F64(node.threshold);
      writer.I32(node.left);
      writer.I32(node.right);
    }
  }
}

Status ReadGbdtNodesBinary(BinaryReader& reader,
                           std::vector<GbdtTreeNode>* nodes) {
  uint64_t count = 0;
  if (!reader.U64(&count)) return reader.status();
  if (count > reader.remaining()) {
    return Status::DataLoss("gbdt node count " + std::to_string(count) +
                            " exceeds payload at byte " +
                            std::to_string(reader.offset()));
  }
  nodes->resize(static_cast<size_t>(count));
  for (auto& node : *nodes) {
    uint8_t is_leaf = 0;
    if (!reader.U8(&is_leaf)) return reader.status();
    node.is_leaf = is_leaf != 0;
    if (node.is_leaf) {
      if (!reader.F64(&node.value)) return reader.status();
    } else {
      int32_t feature = 0;
      int32_t left = 0;
      int32_t right = 0;
      if (!reader.I32(&feature) || !reader.F64(&node.threshold) ||
          !reader.I32(&left) || !reader.I32(&right)) {
        return reader.status();
      }
      node.feature = feature;
      node.left = left;
      node.right = right;
    }
  }
  return ValidateGbdtNodes(*nodes);
}

}  // namespace

Status SerializeModelBinary(const Classifier& model, BinaryWriter& writer) {
  if (const auto* lr = dynamic_cast<const LogisticRegressionModel*>(&model)) {
    writer.U8(kTagLr);
    writer.F64Vector(lr->coefficients());
    writer.F64(lr->intercept());
    return Status::Ok();
  }
  if (const auto* nb = dynamic_cast<const NaiveBayesModel*>(&model)) {
    writer.U8(kTagNb);
    writer.F64(nb->log_prior_ratio());
    writer.F64Vector(nb->mean0());
    writer.F64Vector(nb->mean1());
    writer.F64Vector(nb->var0());
    writer.F64Vector(nb->var1());
    return Status::Ok();
  }
  if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(&model)) {
    writer.U8(kTagDt);
    WriteDtNodesBinary(writer, dt->nodes());
    return Status::Ok();
  }
  if (const auto* rf = dynamic_cast<const RandomForestModel*>(&model)) {
    writer.U8(kTagRf);
    writer.U64(rf->trees().size());
    for (const auto& tree : rf->trees()) {
      const auto* tree_model = dynamic_cast<const DecisionTreeModel*>(tree.get());
      if (tree_model == nullptr) {
        return Status::Unsupported("forest contains a non-CART member");
      }
      WriteDtNodesBinary(writer, tree_model->nodes());
    }
    return Status::Ok();
  }
  if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model)) {
    writer.U8(kTagGbdt);
    writer.F64(gbdt->base_score());
    writer.F64(gbdt->learning_rate());
    writer.U64(gbdt->trees().size());
    for (const auto& tree : gbdt->trees()) WriteGbdtNodesBinary(writer, tree);
    return Status::Ok();
  }
  if (const auto* mlp = dynamic_cast<const MlpModel*>(&model)) {
    writer.U8(kTagMlp);
    writer.U64(mlp->hidden_units());
    writer.U64(mlp->inputs());
    for (double w : mlp->W1()) writer.F64(w);
    writer.F64Vector(mlp->b1());
    writer.F64Vector(mlp->w2());
    writer.F64(mlp->b2());
    return Status::Ok();
  }
  return Status::Unsupported("no binary serializer for model family " +
                             model.Name());
}

Result<std::unique_ptr<Classifier>> DeserializeModelBinary(BinaryReader& reader) {
  uint8_t tag = 0;
  if (!reader.U8(&tag)) return reader.status();
  switch (tag) {
    case kTagLr: {
      std::vector<double> coefficients;
      double intercept = 0.0;
      if (!reader.F64Vector(&coefficients) || !reader.F64(&intercept)) {
        return reader.status();
      }
      return std::unique_ptr<Classifier>(std::make_unique<LogisticRegressionModel>(
          std::move(coefficients), intercept));
    }
    case kTagNb: {
      double log_prior_ratio = 0.0;
      std::vector<double> mean0;
      std::vector<double> mean1;
      std::vector<double> var0;
      std::vector<double> var1;
      if (!reader.F64(&log_prior_ratio) || !reader.F64Vector(&mean0) ||
          !reader.F64Vector(&mean1) || !reader.F64Vector(&var0) ||
          !reader.F64Vector(&var1)) {
        return reader.status();
      }
      return std::unique_ptr<Classifier>(std::make_unique<NaiveBayesModel>(
          log_prior_ratio, std::move(mean0), std::move(mean1), std::move(var0),
          std::move(var1)));
    }
    case kTagDt: {
      std::vector<DecisionTreeModel::Node> nodes;
      Status status = ReadDtNodesBinary(reader, &nodes);
      if (!status.ok()) return status;
      return std::unique_ptr<Classifier>(
          std::make_unique<DecisionTreeModel>(std::move(nodes)));
    }
    case kTagRf: {
      uint64_t num_trees = 0;
      if (!reader.U64(&num_trees)) return reader.status();
      if (num_trees > reader.remaining()) {
        return Status::DataLoss("forest tree count " +
                                std::to_string(num_trees) +
                                " exceeds payload at byte " +
                                std::to_string(reader.offset()));
      }
      std::vector<std::unique_ptr<Classifier>> trees;
      trees.reserve(static_cast<size_t>(num_trees));
      for (uint64_t t = 0; t < num_trees; ++t) {
        std::vector<DecisionTreeModel::Node> nodes;
        Status status = ReadDtNodesBinary(reader, &nodes);
        if (!status.ok()) return status;
        trees.push_back(std::make_unique<DecisionTreeModel>(std::move(nodes)));
      }
      return std::unique_ptr<Classifier>(
          std::make_unique<RandomForestModel>(std::move(trees)));
    }
    case kTagGbdt: {
      double base_score = 0.0;
      double learning_rate = 0.0;
      uint64_t num_trees = 0;
      if (!reader.F64(&base_score) || !reader.F64(&learning_rate) ||
          !reader.U64(&num_trees)) {
        return reader.status();
      }
      if (num_trees > reader.remaining()) {
        return Status::DataLoss("gbdt tree count " + std::to_string(num_trees) +
                                " exceeds payload at byte " +
                                std::to_string(reader.offset()));
      }
      std::vector<std::vector<GbdtTreeNode>> trees(
          static_cast<size_t>(num_trees));
      for (auto& tree : trees) {
        Status status = ReadGbdtNodesBinary(reader, &tree);
        if (!status.ok()) return status;
      }
      return std::unique_ptr<Classifier>(std::make_unique<GbdtModel>(
          std::move(trees), base_score, learning_rate));
    }
    case kTagMlp: {
      uint64_t hidden = 0;
      uint64_t inputs = 0;
      if (!reader.U64(&hidden) || !reader.U64(&inputs)) return reader.status();
      if (hidden * 8 > reader.remaining() || inputs * 8 > reader.remaining() ||
          (inputs != 0 && hidden > reader.remaining() / 8 / inputs)) {
        return Status::DataLoss("mlp claims a " + std::to_string(hidden) + "x" +
                                std::to_string(inputs) +
                                " hidden layer exceeding payload at byte " +
                                std::to_string(reader.offset()));
      }
      std::vector<double> W1(static_cast<size_t>(hidden * inputs));
      for (double& w : W1) {
        if (!reader.F64(&w)) return reader.status();
      }
      std::vector<double> b1;
      std::vector<double> w2;
      double b2 = 0.0;
      if (!reader.F64Vector(&b1) || !reader.F64Vector(&w2) || !reader.F64(&b2)) {
        return reader.status();
      }
      if (b1.size() != hidden || w2.size() != hidden) {
        return Status::DataLoss("mlp bias/output widths disagree with its " +
                                std::to_string(hidden) + " hidden units");
      }
      return std::unique_ptr<Classifier>(std::make_unique<MlpModel>(
          static_cast<size_t>(inputs), std::move(W1), std::move(b1),
          std::move(w2), b2));
    }
    default:
      return Status::DataLoss("unknown binary model family tag " +
                              std::to_string(tag) + " at byte " +
                              std::to_string(reader.offset()));
  }
}

Result<std::vector<uint8_t>> SerializeModelBinary(const Classifier& model) {
  BinaryWriter writer;
  Status status = SerializeModelBinary(model, writer);
  if (!status.ok()) return status;
  return writer.TakeBuffer();
}

Result<std::unique_ptr<Classifier>> DeserializeModelBinary(
    const std::vector<uint8_t>& bytes) {
  BinaryReader reader(bytes);
  return DeserializeModelBinary(reader);
}

}  // namespace omnifair
