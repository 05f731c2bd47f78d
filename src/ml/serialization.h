#ifndef OMNIFAIR_ML_SERIALIZATION_H_
#define OMNIFAIR_ML_SERIALIZATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "util/snapshot_io.h"
#include "util/status.h"

namespace omnifair {

/// Compact binary model codec over the snapshot byte layer (util/snapshot_io).
/// Doubles are stored as raw IEEE-754 bits, so a deserialized model is
/// bit-identical to the original — the property the checkpoint/resume layer
/// depends on (DESIGN.md §12). Supported families: logistic_regression,
/// naive_bayes, decision_tree, random_forest, gbdt, mlp; other classifiers
/// (e.g. the ExpGrad ensemble) return kUnsupported. Tree payloads are
/// structurally validated on load, so hostile bytes can never make Predict
/// read out of bounds or loop forever.
Status SerializeModelBinary(const Classifier& model, BinaryWriter& writer);
/// Consumes one model from `reader` (as written by SerializeModelBinary).
/// Corrupt payloads yield kDataLoss with the failing byte offset.
Result<std::unique_ptr<Classifier>> DeserializeModelBinary(BinaryReader& reader);

/// Whole-buffer conveniences around the streaming codec.
Result<std::vector<uint8_t>> SerializeModelBinary(const Classifier& model);
Result<std::unique_ptr<Classifier>> DeserializeModelBinary(
    const std::vector<uint8_t>& bytes);

}  // namespace omnifair

#endif  // OMNIFAIR_ML_SERIALIZATION_H_
