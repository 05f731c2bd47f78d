#include "ml/bundle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/snapshot_io.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define OMNIFAIR_BUNDLE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace omnifair {

namespace {

// Fixed header: magic, version, flags, section count, declared file size,
// reserved. Kept at 32 bytes so the first payload slot lands on a clean
// boundary after a short table.
constexpr uint64_t kHeaderBytes = 32;
constexpr uint64_t kTrailerBytes = 4;  // CRC-32
// Rows per chunk-parallel predict task; must match the model classes'
// kPredictChunkRows so the flat path is bit-identical at every thread count.
constexpr size_t kPredictChunkRows = 256;

uint64_t AlignUp(uint64_t offset) {
  return (offset + kBundleAlign - 1) / kBundleAlign * kBundleAlign;
}

Status NearByte(uint64_t offset, const std::string& what, bool invalid = false) {
  const std::string message =
      "bundle: " + what + " near byte " + std::to_string(offset);
  return invalid ? Status::InvalidArgument(message) : Status::DataLoss(message);
}

size_t DtypeElemBytes(BundleDtype dtype) {
  switch (dtype) {
    case BundleDtype::kBytes:
      return 1;
    case BundleDtype::kF64:
      return 8;
    case BundleDtype::kI32:
      return 4;
    case BundleDtype::kU64:
      return 8;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

struct PendingSection {
  std::string name;
  BundleDtype dtype;
  std::vector<uint8_t> payload;
};

void AddBytes(std::vector<PendingSection>* sections, const std::string& name,
              BundleDtype dtype, const void* data, size_t bytes) {
  PendingSection section;
  section.name = name;
  section.dtype = dtype;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  section.payload.assign(p, p + bytes);
  sections->push_back(std::move(section));
}

void AddF64(std::vector<PendingSection>* sections, const std::string& name,
            const std::vector<double>& values) {
  AddBytes(sections, name, BundleDtype::kF64, values.data(),
           values.size() * sizeof(double));
}

void AddI32(std::vector<PendingSection>* sections, const std::string& name,
            const std::vector<int32_t>& values) {
  AddBytes(sections, name, BundleDtype::kI32, values.data(),
           values.size() * sizeof(int32_t));
}

void AddU64(std::vector<PendingSection>* sections, const std::string& name,
            const std::vector<uint64_t>& values) {
  AddBytes(sections, name, BundleDtype::kU64, values.data(),
           values.size() * sizeof(uint64_t));
}

/// Struct-of-arrays node tables for one or more trees, concatenated.
/// Children are appended to the BFS queue left-then-right, so within a tree
/// the right child always sits at left_child + 1 and only `left` is stored.
struct FlatTreeArrays {
  std::vector<uint64_t> offsets{0};  // node-index range per tree
  std::vector<int32_t> feature;      // -1 marks a leaf
  std::vector<double> threshold;
  std::vector<int32_t> left;         // tree-local; -1 for leaves
  std::vector<double> value;         // leaf payload (probability / weight)
};

template <typename Node, typename ValueFn>
Status AppendBfsTree(const std::vector<Node>& nodes, ValueFn value_of,
                     FlatTreeArrays* out) {
  if (nodes.empty()) {
    return Status::InvalidArgument("cannot pack an empty tree into a bundle");
  }
  // Breadth-first visit order. BFS preserves every (feature, threshold)
  // comparison on the root-to-leaf path, so traversal reaches the same leaf
  // as the pointer-chasing layout — only the memory order changes.
  std::vector<int32_t> order;
  std::vector<int32_t> new_index(nodes.size(), -1);
  order.reserve(nodes.size());
  order.push_back(0);
  new_index[0] = 0;
  for (size_t q = 0; q < order.size(); ++q) {
    const Node& node = nodes[order[q]];
    if (node.is_leaf) continue;
    if (node.left < 0 || node.right < 0 ||
        static_cast<size_t>(node.left) >= nodes.size() ||
        static_cast<size_t>(node.right) >= nodes.size()) {
      return Status::InvalidArgument("malformed tree: child index out of range");
    }
    if (new_index[node.left] != -1 || new_index[node.right] != -1) {
      return Status::InvalidArgument("malformed tree: node reachable twice");
    }
    new_index[node.left] = static_cast<int32_t>(order.size());
    order.push_back(node.left);
    new_index[node.right] = static_cast<int32_t>(order.size());
    order.push_back(node.right);
  }
  for (size_t q = 0; q < order.size(); ++q) {
    const Node& node = nodes[order[q]];
    out->feature.push_back(node.is_leaf ? -1 : node.feature);
    out->threshold.push_back(node.is_leaf ? 0.0 : node.threshold);
    out->left.push_back(node.is_leaf ? -1 : new_index[node.left]);
    out->value.push_back(value_of(node));
  }
  out->offsets.push_back(static_cast<uint64_t>(out->feature.size()));
  return Status::Ok();
}

void AddTreeSections(std::vector<PendingSection>* sections,
                     const FlatTreeArrays& arrays, double base_score,
                     double learning_rate) {
  BinaryWriter meta;
  meta.U64(arrays.offsets.size() - 1);  // num_trees
  meta.F64(base_score);
  meta.F64(learning_rate);
  AddBytes(sections, "trees.meta", BundleDtype::kBytes, meta.buffer().data(),
           meta.size());
  AddU64(sections, "trees.offsets", arrays.offsets);
  AddI32(sections, "trees.feature", arrays.feature);
  AddF64(sections, "trees.threshold", arrays.threshold);
  AddI32(sections, "trees.left_child", arrays.left);
  AddF64(sections, "trees.leaf_value", arrays.value);
}

Status AppendModelSections(const Classifier& model,
                           std::vector<PendingSection>* sections) {
  if (const auto* lr = dynamic_cast<const LogisticRegressionModel*>(&model)) {
    BinaryWriter meta;
    meta.U64(lr->coefficients().size());
    meta.F64(lr->intercept());
    AddBytes(sections, "lr.meta", BundleDtype::kBytes, meta.buffer().data(),
             meta.size());
    AddF64(sections, "lr.coef", lr->coefficients());
    return Status::Ok();
  }
  if (const auto* nb = dynamic_cast<const NaiveBayesModel*>(&model)) {
    BinaryWriter meta;
    meta.U64(nb->mean0().size());
    meta.F64(nb->log_prior_ratio());
    AddBytes(sections, "nb.meta", BundleDtype::kBytes, meta.buffer().data(),
             meta.size());
    AddF64(sections, "nb.mean0", nb->mean0());
    AddF64(sections, "nb.mean1", nb->mean1());
    AddF64(sections, "nb.var0", nb->var0());
    AddF64(sections, "nb.var1", nb->var1());
    return Status::Ok();
  }
  if (const auto* mlp = dynamic_cast<const MlpModel*>(&model)) {
    BinaryWriter meta;
    meta.U64(mlp->hidden_units());
    meta.U64(mlp->inputs());
    meta.F64(mlp->b2());
    AddBytes(sections, "mlp.meta", BundleDtype::kBytes, meta.buffer().data(),
             meta.size());
    AddF64(sections, "mlp.w1", mlp->W1());
    AddF64(sections, "mlp.b1", mlp->b1());
    AddF64(sections, "mlp.w2", mlp->w2());
    return Status::Ok();
  }
  if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(&model)) {
    FlatTreeArrays arrays;
    Status status = AppendBfsTree(
        dt->nodes(),
        [](const DecisionTreeModel::Node& n) { return n.probability; }, &arrays);
    if (!status.ok()) return status;
    AddTreeSections(sections, arrays, 0.0, 1.0);
    return Status::Ok();
  }
  if (const auto* rf = dynamic_cast<const RandomForestModel*>(&model)) {
    FlatTreeArrays arrays;
    for (const auto& tree : rf->trees()) {
      const auto* dt_tree = dynamic_cast<const DecisionTreeModel*>(tree.get());
      if (dt_tree == nullptr) {
        return Status::InvalidArgument(
            "random forest member is not a decision tree");
      }
      Status status = AppendBfsTree(
          dt_tree->nodes(),
          [](const DecisionTreeModel::Node& n) { return n.probability; },
          &arrays);
      if (!status.ok()) return status;
    }
    AddTreeSections(sections, arrays, 0.0, 1.0);
    return Status::Ok();
  }
  if (const auto* gbdt = dynamic_cast<const GbdtModel*>(&model)) {
    FlatTreeArrays arrays;
    for (const auto& tree : gbdt->trees()) {
      Status status = AppendBfsTree(
          tree, [](const GbdtTreeNode& n) { return n.value; }, &arrays);
      if (!status.ok()) return status;
    }
    AddTreeSections(sections, arrays, gbdt->base_score(),
                    gbdt->learning_rate());
    return Status::Ok();
  }
  return Status::Unsupported("no bundle codec for model family '" +
                             model.Name() + "'");
}

}  // namespace

Status WriteBundle(const Classifier& model, const FeatureEncoder& encoder,
                   const BundleMeta& meta, const std::string& path) {
  std::vector<PendingSection> sections;

  BundleMeta resolved = meta;
  if (resolved.family.empty()) resolved.family = model.Name();
  if (resolved.num_features == 0) resolved.num_features = encoder.NumFeatures();

  BinaryWriter meta_writer;
  meta_writer.String(resolved.family);
  meta_writer.U8(resolved.satisfied ? 1 : 0);
  meta_writer.F64(resolved.val_accuracy);
  meta_writer.F64Vector(resolved.lambdas);
  meta_writer.String(resolved.metric);
  meta_writer.String(resolved.sensitive_attribute);
  meta_writer.F64(resolved.epsilon);
  meta_writer.U64(resolved.num_features);
  AddBytes(&sections, "meta", BundleDtype::kBytes, meta_writer.buffer().data(),
           meta_writer.size());

  std::ostringstream encoder_text;
  encoder.SerializeTo(encoder_text);
  const std::string encoder_blob = encoder_text.str();
  AddBytes(&sections, "encoder", BundleDtype::kBytes, encoder_blob.data(),
           encoder_blob.size());

  Status model_status = AppendModelSections(model, &sections);
  if (!model_status.ok()) return model_status;

  // Layout: header, section table, 64-byte-aligned payloads, CRC trailer.
  uint64_t table_bytes = 0;
  for (const PendingSection& section : sections) {
    table_bytes += 4 + section.name.size() + 1 + 8 + 8;  // name, dtype, off, size
  }
  uint64_t cursor = AlignUp(kHeaderBytes + table_bytes);
  std::vector<uint64_t> offsets;
  offsets.reserve(sections.size());
  for (const PendingSection& section : sections) {
    offsets.push_back(cursor);
    cursor = AlignUp(cursor + section.payload.size());
  }
  // The trailer follows the last payload without padding.
  const uint64_t last_payload_end =
      sections.empty() ? kHeaderBytes + table_bytes
                       : offsets.back() + sections.back().payload.size();
  const uint64_t file_size = last_payload_end + kTrailerBytes;

  BinaryWriter out;
  out.U32(kBundleMagic);
  out.U32(kBundleVersion);
  out.U32(0);  // flags
  out.U32(static_cast<uint32_t>(sections.size()));
  out.U64(file_size);
  out.U64(0);  // reserved
  OF_CHECK_EQ(out.size(), kHeaderBytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    out.String(sections[i].name);
    out.U8(static_cast<uint8_t>(sections[i].dtype));
    out.U64(offsets[i]);
    out.U64(sections[i].payload.size());
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    while (out.size() < offsets[i]) out.U8(0);
    out.RawBytes(sections[i].payload.data(), sections[i].payload.size());
  }
  OF_CHECK_EQ(out.size(), last_payload_end);
  const uint32_t crc = Crc32(out.buffer().data(), out.size());
  out.U32(crc);

  // Crash-safe publish via the snapshot layer's temp file + fsync + atomic
  // rename, so a rename surviving a power loss implies the data did too.
  return WriteFileAtomic(path, out.buffer().data(), out.size());
}

// ---------------------------------------------------------------------------
// Loading + validation
// ---------------------------------------------------------------------------

namespace {

struct ParsedHeader {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t section_count = 0;
  uint64_t declared_size = 0;
};

/// Parses + bounds-checks the fixed header and the section table. `data`
/// spans the whole file image.
Status ParseHeaderAndTable(const uint8_t* data, uint64_t size,
                           ParsedHeader* header,
                           std::vector<BundleSectionInfo>* sections) {
  if (size < kHeaderBytes + kTrailerBytes) {
    return NearByte(size, "truncated: " + std::to_string(size) +
                              " bytes is smaller than a bundle header");
  }
  BinaryReader reader(data, size);
  uint32_t magic = 0;
  uint64_t reserved = 0;
  if (!reader.U32(&magic) || magic != kBundleMagic) {
    return NearByte(0, "not an omnifair bundle (bad magic)", /*invalid=*/true);
  }
  if (!reader.U32(&header->version) || header->version == 0 ||
      header->version > kBundleVersion) {
    return NearByte(4,
                    "unsupported bundle version " +
                        std::to_string(header->version) + " (max " +
                        std::to_string(kBundleVersion) + ")",
                    /*invalid=*/true);
  }
  if (!reader.U32(&header->flags) || !reader.U32(&header->section_count) ||
      !reader.U64(&header->declared_size) || !reader.U64(&reserved)) {
    return reader.status();
  }
  if (header->declared_size != size) {
    return NearByte(16, "truncated: header declares " +
                            std::to_string(header->declared_size) +
                            " bytes but the file has " + std::to_string(size));
  }
  if (header->section_count > 4096) {
    return NearByte(12, "implausible section count " +
                            std::to_string(header->section_count),
                    /*invalid=*/true);
  }
  sections->clear();
  sections->reserve(header->section_count);
  for (uint32_t i = 0; i < header->section_count; ++i) {
    BundleSectionInfo info;
    uint8_t dtype = 0;
    if (!reader.String(&info.name) || !reader.U8(&dtype) ||
        !reader.U64(&info.offset) || !reader.U64(&info.size)) {
      return reader.status();
    }
    if (dtype > static_cast<uint8_t>(BundleDtype::kU64)) {
      return NearByte(reader.offset(),
                      "section '" + info.name + "' has unknown dtype " +
                          std::to_string(dtype),
                      /*invalid=*/true);
    }
    info.dtype = static_cast<BundleDtype>(dtype);
    const uint64_t payload_end = size - kTrailerBytes;
    if (info.offset < kHeaderBytes || info.offset % kBundleAlign != 0 ||
        info.offset > payload_end || info.size > payload_end - info.offset) {
      return NearByte(reader.offset(), "section '" + info.name +
                                           "' points outside the file (offset " +
                                           std::to_string(info.offset) +
                                           ", size " + std::to_string(info.size) +
                                           ")");
    }
    if (info.size % DtypeElemBytes(info.dtype) != 0) {
      return NearByte(info.offset, "section '" + info.name +
                                       "' byte size is not a multiple of its "
                                       "element size");
    }
    sections->push_back(std::move(info));
  }
  return Status::Ok();
}

uint32_t ReadTrailerCrc(const uint8_t* data, uint64_t size) {
  uint32_t stored = 0;
  std::memcpy(&stored, data + size - kTrailerBytes, sizeof(stored));
  return stored;
}

}  // namespace

/// Friend of ModelBundle: resolves typed array views into the validated
/// image and cross-checks every shape invariant the flat models rely on.
struct BundleParser {
  ModelBundle* bundle;

  const BundleSectionInfo* Find(const std::string& name) const {
    for (const BundleSectionInfo& section : bundle->sections_) {
      if (section.name == name) return &section;
    }
    return nullptr;
  }

  template <typename T>
  Result<const T*> Array(const std::string& name, BundleDtype dtype,
                         uint64_t expect_count) const {
    const BundleSectionInfo* section = Find(name);
    if (section == nullptr) {
      return Status::DataLoss("bundle: missing section '" + name + "'");
    }
    if (section->dtype != dtype) {
      return NearByte(section->offset, "section '" + name + "' has wrong dtype");
    }
    // Divide rather than multiply: `expect_count * sizeof(T)` can wrap for
    // attacker-chosen counts, while section->size is already bounded by the
    // file size.
    if (section->size / sizeof(T) != expect_count ||
        section->size % sizeof(T) != 0) {
      return NearByte(section->offset,
                      "section '" + name + "' holds " +
                          std::to_string(section->size / sizeof(T)) +
                          " elements, expected " + std::to_string(expect_count));
    }
    const uint8_t* p = bundle->base() + section->offset;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
      return NearByte(section->offset,
                      "section '" + name + "' payload is misaligned");
    }
    return reinterpret_cast<const T*>(p);
  }

  Result<BinaryReader> MetaReader(const std::string& name) const {
    const BundleSectionInfo* section = Find(name);
    if (section == nullptr) {
      return Status::DataLoss("bundle: missing section '" + name + "'");
    }
    return BinaryReader(bundle->base() + section->offset, section->size);
  }

  Status ParseMeta() {
    Result<BinaryReader> reader = MetaReader("meta");
    if (!reader.ok()) return reader.status();
    BundleMeta& meta = bundle->meta_;
    uint8_t satisfied = 0;
    if (!reader->String(&meta.family) || !reader->U8(&satisfied) ||
        !reader->F64(&meta.val_accuracy) ||
        !reader->F64Vector(&meta.lambdas) || !reader->String(&meta.metric) ||
        !reader->String(&meta.sensitive_attribute) ||
        !reader->F64(&meta.epsilon) || !reader->U64(&meta.num_features)) {
      return reader->status();
    }
    meta.satisfied = satisfied != 0;
    return Status::Ok();
  }

  Status ParseEncoder() {
    const BundleSectionInfo* section = Find("encoder");
    if (section == nullptr) {
      return Status::DataLoss("bundle: missing section 'encoder'");
    }
    const char* text = reinterpret_cast<const char*>(bundle->base()) +
                       section->offset;
    std::istringstream stream(std::string(text, section->size));
    Result<FeatureEncoder> encoder = FeatureEncoder::Deserialize(stream);
    if (!encoder.ok()) return encoder.status();
    bundle->encoder_ = std::move(*encoder);
    if (bundle->encoder_.NumFeatures() != bundle->meta_.num_features) {
      return NearByte(section->offset,
                      "encoder emits " +
                          std::to_string(bundle->encoder_.NumFeatures()) +
                          " features but meta declares " +
                          std::to_string(bundle->meta_.num_features));
    }
    return Status::Ok();
  }

  Status ParseTrees() {
    Result<BinaryReader> meta_reader = MetaReader("trees.meta");
    if (!meta_reader.ok()) return meta_reader.status();
    ModelBundle::FlatTrees& trees = bundle->trees_;
    if (!meta_reader->U64(&trees.num_trees) ||
        !meta_reader->F64(&trees.base_score) ||
        !meta_reader->F64(&trees.learning_rate)) {
      return meta_reader->status();
    }
    if (trees.num_trees == 0 || trees.num_trees > (1u << 24)) {
      return Status::DataLoss("bundle: implausible tree count " +
                              std::to_string(trees.num_trees));
    }
    Result<const uint64_t*> offsets =
        Array<uint64_t>("trees.offsets", BundleDtype::kU64, trees.num_trees + 1);
    if (!offsets.ok()) return offsets.status();
    trees.tree_offsets = *offsets;
    if (trees.tree_offsets[0] != 0) {
      return Status::DataLoss("bundle: tree offsets must start at 0");
    }
    for (uint64_t t = 0; t < trees.num_trees; ++t) {
      if (trees.tree_offsets[t + 1] <= trees.tree_offsets[t]) {
        return Status::DataLoss("bundle: tree " + std::to_string(t) +
                                " is empty or offsets are not ascending");
      }
    }
    const uint64_t total_nodes = trees.tree_offsets[trees.num_trees];
    // Child indices are int32, so every node index (and the casts in the
    // invariant loop below) must fit in int32. This also bounds the loop for
    // crafted offset tables before any node array is touched.
    if (total_nodes > static_cast<uint64_t>(
                          std::numeric_limits<int32_t>::max())) {
      return Status::DataLoss("bundle: implausible total node count " +
                              std::to_string(total_nodes));
    }
    Result<const int32_t*> feature =
        Array<int32_t>("trees.feature", BundleDtype::kI32, total_nodes);
    Result<const double*> threshold =
        Array<double>("trees.threshold", BundleDtype::kF64, total_nodes);
    Result<const int32_t*> left =
        Array<int32_t>("trees.left_child", BundleDtype::kI32, total_nodes);
    Result<const double*> value =
        Array<double>("trees.leaf_value", BundleDtype::kF64, total_nodes);
    if (!feature.ok()) return feature.status();
    if (!threshold.ok()) return threshold.status();
    if (!left.ok()) return left.status();
    if (!value.ok()) return value.status();
    trees.feature = *feature;
    trees.threshold = *threshold;
    trees.left_child = *left;
    trees.leaf_value = *value;

    // Node-table invariants that make traversal safe without per-row checks:
    // feature indices inside the encoded width, children strictly forward
    // (BFS order ⇒ termination) and in range, leaves marked consistently.
    const int64_t dims = static_cast<int64_t>(bundle->meta_.num_features);
    for (uint64_t t = 0; t < trees.num_trees; ++t) {
      const uint64_t begin = trees.tree_offsets[t];
      const uint64_t count = trees.tree_offsets[t + 1] - begin;
      for (uint64_t i = 0; i < count; ++i) {
        const int32_t f = trees.feature[begin + i];
        const int32_t l = trees.left_child[begin + i];
        if (f < 0) {
          if (l != -1) {
            return Status::DataLoss("bundle: leaf node with a child in tree " +
                                    std::to_string(t));
          }
          continue;
        }
        if (f >= dims) {
          return Status::DataLoss(
              "bundle: tree " + std::to_string(t) + " splits on feature " +
              std::to_string(f) + " but the encoder emits " +
              std::to_string(dims) + " features");
        }
        if (l <= static_cast<int32_t>(i) ||
            static_cast<uint64_t>(l) + 1 >= count) {
          return Status::DataLoss("bundle: tree " + std::to_string(t) +
                                  " child index " + std::to_string(l) +
                                  " breaks the breadth-first layout");
        }
      }
    }
    return Status::Ok();
  }

  Status ParseFamily() {
    const std::string& family = bundle->meta_.family;
    const uint64_t dims = bundle->meta_.num_features;
    if (family == "logistic_regression") {
      bundle->family_ = ModelBundle::Family::kLr;
      Result<BinaryReader> meta = MetaReader("lr.meta");
      if (!meta.ok()) return meta.status();
      if (!meta->U64(&bundle->lr_.dims) || !meta->F64(&bundle->lr_.intercept)) {
        return meta->status();
      }
      if (bundle->lr_.dims != dims) {
        return Status::DataLoss("bundle: lr weight width mismatch");
      }
      Result<const double*> coef =
          Array<double>("lr.coef", BundleDtype::kF64, bundle->lr_.dims);
      if (!coef.ok()) return coef.status();
      bundle->lr_.coef = *coef;
      return Status::Ok();
    }
    if (family == "naive_bayes") {
      bundle->family_ = ModelBundle::Family::kNb;
      Result<BinaryReader> meta = MetaReader("nb.meta");
      if (!meta.ok()) return meta.status();
      if (!meta->U64(&bundle->nb_.dims) ||
          !meta->F64(&bundle->nb_.log_prior_ratio)) {
        return meta->status();
      }
      if (bundle->nb_.dims != dims) {
        return Status::DataLoss("bundle: nb statistics width mismatch");
      }
      const std::pair<const char*, const double**> nb_arrays[] = {
          {"nb.mean0", &bundle->nb_.mean0},
          {"nb.mean1", &bundle->nb_.mean1},
          {"nb.var0", &bundle->nb_.var0},
          {"nb.var1", &bundle->nb_.var1}};
      for (const auto& [name, slot] : nb_arrays) {
        Result<const double*> array =
            Array<double>(name, BundleDtype::kF64, bundle->nb_.dims);
        if (!array.ok()) return array.status();
        *slot = *array;
      }
      return Status::Ok();
    }
    if (family == "mlp") {
      bundle->family_ = ModelBundle::Family::kMlp;
      Result<BinaryReader> meta = MetaReader("mlp.meta");
      if (!meta.ok()) return meta.status();
      if (!meta->U64(&bundle->mlp_.hidden) || !meta->U64(&bundle->mlp_.dims) ||
          !meta->F64(&bundle->mlp_.b2)) {
        return meta->status();
      }
      if (bundle->mlp_.dims != dims || bundle->mlp_.hidden == 0 ||
          bundle->mlp_.hidden > (1u << 20)) {
        return Status::DataLoss("bundle: mlp shape mismatch");
      }
      Result<const double*> w1 = Array<double>(
          "mlp.w1", BundleDtype::kF64, bundle->mlp_.hidden * bundle->mlp_.dims);
      Result<const double*> b1 =
          Array<double>("mlp.b1", BundleDtype::kF64, bundle->mlp_.hidden);
      Result<const double*> w2 =
          Array<double>("mlp.w2", BundleDtype::kF64, bundle->mlp_.hidden);
      if (!w1.ok()) return w1.status();
      if (!b1.ok()) return b1.status();
      if (!w2.ok()) return w2.status();
      bundle->mlp_.w1 = *w1;
      bundle->mlp_.b1 = *b1;
      bundle->mlp_.w2 = *w2;
      return Status::Ok();
    }
    if (family == "decision_tree") {
      bundle->family_ = ModelBundle::Family::kDt;
      Status status = ParseTrees();
      if (!status.ok()) return status;
      if (bundle->trees_.num_trees != 1) {
        return Status::DataLoss("bundle: decision_tree must hold one tree");
      }
      return Status::Ok();
    }
    if (family == "random_forest") {
      bundle->family_ = ModelBundle::Family::kRf;
      return ParseTrees();
    }
    if (family == "gbdt") {
      bundle->family_ = ModelBundle::Family::kGbdt;
      return ParseTrees();
    }
    return Status::InvalidArgument("bundle: unknown model family '" + family +
                                   "'");
  }

  Status Parse() {
    const uint8_t* data = bundle->base();
    const uint64_t size = bundle->size_;
    ParsedHeader header;
    Status status = ParseHeaderAndTable(data, size, &header, &bundle->sections_);
    if (!status.ok()) return status;
    const uint32_t computed = Crc32(data, size - kTrailerBytes);
    const uint32_t stored = ReadTrailerCrc(data, size);
    if (computed != stored) {
      return NearByte(size - kTrailerBytes, "CRC mismatch (bit flip or torn write)");
    }
    status = ParseMeta();
    if (!status.ok()) return status;
    status = ParseEncoder();
    if (!status.ok()) return status;
    return ParseFamily();
  }
};

const uint8_t* ModelBundle::base() const {
  return mapped_ ? static_cast<const uint8_t*>(map_addr_) : owned_.data();
}

ModelBundle::~ModelBundle() {
#if OMNIFAIR_BUNDLE_HAVE_MMAP
  if (mapped_ && map_addr_ != nullptr) {
    munmap(map_addr_, static_cast<size_t>(size_));
  }
#endif
}

Result<std::shared_ptr<const ModelBundle>> ModelBundle::Open(
    const std::string& path) {
  return Open(path, OpenOptions());
}

Result<std::shared_ptr<const ModelBundle>> ModelBundle::Open(
    const std::string& path, const OpenOptions& options) {
  std::shared_ptr<ModelBundle> bundle(new ModelBundle());
  // The corrupt-read fault site needs a writable image to flip a byte in, so
  // an armed injector forces the owned-buffer path.
  const bool corrupt = FaultInjector::ShouldFail(fault_sites::kIoCorruptRead);
#if OMNIFAIR_BUNDLE_HAVE_MMAP
  if (options.allow_mmap && !corrupt) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return IoError(path, "open", errno);
    struct stat st;
    if (fstat(fd, &st) == 0 && st.st_size > 0) {
      void* addr = mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
      if (addr != MAP_FAILED) {
        bundle->mapped_ = true;
        bundle->map_addr_ = addr;
        bundle->size_ = static_cast<uint64_t>(st.st_size);
      }
    }
    ::close(fd);
  }
#else
  (void)options;
#endif
  if (!bundle->mapped_) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return IoError(path, "open");
    file.seekg(0, std::ios::end);
    const std::streamoff length = file.tellg();
    file.seekg(0, std::ios::beg);
    bundle->owned_.resize(length > 0 ? static_cast<size_t>(length) : 0);
    if (!bundle->owned_.empty()) {
      file.read(reinterpret_cast<char*>(bundle->owned_.data()),
                static_cast<std::streamsize>(bundle->owned_.size()));
      if (!file) return IoError(path, "read");
    }
    bundle->size_ = bundle->owned_.size();
    if (corrupt && !bundle->owned_.empty()) {
      bundle->owned_[bundle->owned_.size() * 2 / 3] ^= 0x2a;
    }
  }
  BundleParser parser{bundle.get()};
  Status status = parser.Parse();
  if (!status.ok()) return status;
  return std::static_pointer_cast<const ModelBundle>(bundle);
}

// ---------------------------------------------------------------------------
// Flat models: each replicates the corresponding model's predict arithmetic
// (same kernels, same chunking, same accumulation order) over the aliased
// arrays, so results are bit-identical at every thread count. Defined at
// namespace scope (not anonymous) so ModelBundle's friend declarations
// match; they stay cc-private via the header's absence of declarations.
// ---------------------------------------------------------------------------

namespace {

/// Root-to-leaf walk over one tree's slice of the node tables. The right
/// child is left_child + 1 by BFS construction; the comparison matches the
/// pointer layouts (`row[feature] <= threshold`, float rows widened once).
double FlatLeafValue(const int32_t* feature, const double* threshold,
                     const int32_t* left, const double* value, const float* row) {
  int32_t i = 0;
  while (feature[i] >= 0) {
    i = static_cast<double>(row[feature[i]]) <= threshold[i] ? left[i]
                                                             : left[i] + 1;
  }
  return value[i];
}

}  // namespace

class FlatTreeBase : public Classifier {
 public:
  explicit FlatTreeBase(std::shared_ptr<const ModelBundle> bundle)
      : bundle_(std::move(bundle)), trees_(bundle_->trees_) {}

 protected:
  double TreeLeaf(uint64_t tree, const float* row) const {
    const uint64_t base = trees_.tree_offsets[tree];
    return FlatLeafValue(trees_.feature + base, trees_.threshold + base,
                         trees_.left_child + base, trees_.leaf_value + base,
                         row);
  }

  std::shared_ptr<const ModelBundle> bundle_;
  const ModelBundle::FlatTrees& trees_;
};

class FlatTreeModel final : public FlatTreeBase {
 public:
  using FlatTreeBase::FlatTreeBase;

  std::vector<double> PredictProba(const Matrix& X) const override {
    std::vector<double> proba(X.rows());
    for (size_t i = 0; i < X.rows(); ++i) proba[i] = TreeLeaf(0, X.RowF(i));
    return proba;
  }

  void AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                       std::vector<double>& proba) const override {
    for (size_t i = row_begin; i < row_end; ++i) proba[i] += TreeLeaf(0, X.RowF(i));
  }

  std::string Name() const override { return "decision_tree"; }
};

class FlatForestModel final : public FlatTreeBase {
 public:
  FlatForestModel(std::shared_ptr<const ModelBundle> bundle, int num_threads)
      : FlatTreeBase(std::move(bundle)),
        num_threads_(std::max(1, num_threads)) {}

  std::vector<double> PredictProba(const Matrix& X) const override {
    const size_t n = X.rows();
    std::vector<double> proba(n, 0.0);
    // Tree-index-order accumulation per row, chunk-parallel over disjoint
    // rows — the same schedule as RandomForestModel::PredictProba, so the
    // result is bit-identical for any thread count.
    auto accumulate_rows = [&](size_t begin, size_t end) {
      for (uint64_t t = 0; t < trees_.num_trees; ++t) {
        for (size_t i = begin; i < end; ++i) proba[i] += TreeLeaf(t, X.RowF(i));
      }
    };
    if (num_threads_ <= 1 || n < 2 * kPredictChunkRows) {
      accumulate_rows(0, n);
    } else {
      const size_t chunks = (n + kPredictChunkRows - 1) / kPredictChunkRows;
      ThreadPool::Global().ParallelFor(
          chunks,
          [&](size_t c) {
            const size_t begin = c * kPredictChunkRows;
            accumulate_rows(begin, std::min(n, begin + kPredictChunkRows));
          },
          num_threads_);
    }
    const double inv = 1.0 / static_cast<double>(trees_.num_trees);
    for (double& p : proba) p *= inv;
    return proba;
  }

  std::string Name() const override { return "random_forest"; }

 private:
  int num_threads_;
};

class FlatGbdtModel final : public FlatTreeBase {
 public:
  FlatGbdtModel(std::shared_ptr<const ModelBundle> bundle, int num_threads)
      : FlatTreeBase(std::move(bundle)),
        num_threads_(std::max(1, num_threads)) {}

  std::vector<double> PredictProba(const Matrix& X) const override {
    std::vector<double> proba = PredictRaw(X);
    SigmoidInPlace(&proba);
    return proba;
  }

  void AccumulateProba(const Matrix& X, size_t row_begin, size_t row_end,
                       std::vector<double>& proba) const override {
    // Blocked sigmoid into a stack scratch, mirroring GbdtModel.
    double scratch[kPredictChunkRows];
    for (size_t start = row_begin; start < row_end;
         start += kPredictChunkRows) {
      const size_t len = std::min(row_end - start, kPredictChunkRows);
      for (size_t j = 0; j < len; ++j) scratch[j] = RawRow(X.RowF(start + j));
      SigmoidInPlace(scratch, len);
      for (size_t j = 0; j < len; ++j) proba[start + j] += scratch[j];
    }
  }

  std::string Name() const override { return "gbdt"; }

 private:
  double RawRow(const float* row) const {
    double raw = trees_.base_score;
    for (uint64_t t = 0; t < trees_.num_trees; ++t) {
      raw += trees_.learning_rate * TreeLeaf(t, row);
    }
    return raw;
  }

  std::vector<double> PredictRaw(const Matrix& X) const {
    const size_t n = X.rows();
    std::vector<double> raw(n);
    auto score_rows = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) raw[i] = RawRow(X.RowF(i));
    };
    if (num_threads_ <= 1 || n < 2 * kPredictChunkRows) {
      score_rows(0, n);
    } else {
      const size_t chunks = (n + kPredictChunkRows - 1) / kPredictChunkRows;
      ThreadPool::Global().ParallelFor(
          chunks,
          [&](size_t c) {
            const size_t begin = c * kPredictChunkRows;
            score_rows(begin, std::min(n, begin + kPredictChunkRows));
          },
          num_threads_);
    }
    return raw;
  }

  int num_threads_;
};

class FlatLrModel final : public Classifier {
 public:
  explicit FlatLrModel(std::shared_ptr<const ModelBundle> bundle)
      : bundle_(std::move(bundle)), lr_(bundle_->lr_) {}

  std::vector<double> PredictProba(const Matrix& X) const override {
    OF_CHECK_EQ(X.cols(), static_cast<size_t>(lr_.dims));
    std::vector<double> proba(X.rows());
    X.MatVecInto(lr_.coef, proba.data());
    for (double& p : proba) p += lr_.intercept;
    SigmoidInPlace(&proba);
    return proba;
  }

  std::string Name() const override { return "logistic_regression"; }

 private:
  std::shared_ptr<const ModelBundle> bundle_;
  const ModelBundle::FlatLinear& lr_;
};

class FlatMlpModel final : public Classifier {
 public:
  explicit FlatMlpModel(std::shared_ptr<const ModelBundle> bundle)
      : bundle_(std::move(bundle)), mlp_(bundle_->mlp_) {}

  std::vector<double> PredictProba(const Matrix& X) const override {
    const size_t d = static_cast<size_t>(mlp_.dims);
    const size_t h = static_cast<size_t>(mlp_.hidden);
    OF_CHECK_EQ(X.cols(), d);
    const size_t n = X.rows();
    std::vector<double> proba(n);
    std::vector<double> hidden(h);
    const simd::Kernels& kernels = simd::Active();
    // Row-blocked predict with the same per-row dot kernels as
    // MlpModel::PredictProba.
    constexpr size_t kBlockRows = 256;
    for (size_t start = 0; start < n; start += kBlockRows) {
      const size_t end = std::min(n, start + kBlockRows);
      for (size_t i = start; i < end; ++i) {
        const float* row = X.RowF(i);
        for (size_t j = 0; j < h; ++j) {
          const double z = kernels.dot_f32(row, mlp_.w1 + j * d, d) + mlp_.b1[j];
          hidden[j] = z > 0.0 ? z : 0.0;  // ReLU
        }
        proba[i] = mlp_.b2 + kernels.dot(mlp_.w2, hidden.data(), h);
      }
      kernels.sigmoid_inplace(proba.data() + start, end - start);
    }
    return proba;
  }

  std::string Name() const override { return "mlp"; }

 private:
  std::shared_ptr<const ModelBundle> bundle_;
  const ModelBundle::FlatMlp& mlp_;
};

class FlatNbModel final : public Classifier {
 public:
  explicit FlatNbModel(std::shared_ptr<const ModelBundle> bundle)
      : bundle_(std::move(bundle)), nb_(bundle_->nb_) {}

  std::vector<double> PredictProba(const Matrix& X) const override {
    const size_t d = static_cast<size_t>(nb_.dims);
    OF_CHECK_EQ(X.cols(), d);
    std::vector<double> proba(X.rows());
    for (size_t i = 0; i < X.rows(); ++i) {
      double log_odds = nb_.log_prior_ratio;
      for (size_t c = 0; c < d; ++c) {
        const double x = X(i, c);
        const double d1 = x - nb_.mean1[c];
        const double d0 = x - nb_.mean0[c];
        log_odds += -0.5 * std::log(nb_.var1[c]) - 0.5 * d1 * d1 / nb_.var1[c];
        log_odds -= -0.5 * std::log(nb_.var0[c]) - 0.5 * d0 * d0 / nb_.var0[c];
      }
      proba[i] = Sigmoid(log_odds);
    }
    return proba;
  }

  std::string Name() const override { return "naive_bayes"; }

 private:
  std::shared_ptr<const ModelBundle> bundle_;
  const ModelBundle::FlatNb& nb_;
};

std::unique_ptr<Classifier> ModelBundle::MakeModel(int num_threads) const {
  std::shared_ptr<const ModelBundle> self = shared_from_this();
  switch (family_) {
    case Family::kLr:
      return std::make_unique<FlatLrModel>(std::move(self));
    case Family::kNb:
      return std::make_unique<FlatNbModel>(std::move(self));
    case Family::kDt:
      return std::make_unique<FlatTreeModel>(std::move(self));
    case Family::kRf:
      return std::make_unique<FlatForestModel>(std::move(self), num_threads);
    case Family::kGbdt:
      return std::make_unique<FlatGbdtModel>(std::move(self), num_threads);
    case Family::kMlp:
      return std::make_unique<FlatMlpModel>(std::move(self));
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

Result<BundleInspection> InspectBundle(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return IoError(path, "open");
  file.seekg(0, std::ios::end);
  const std::streamoff length = file.tellg();
  file.seekg(0, std::ios::beg);
  std::vector<uint8_t> data(length > 0 ? static_cast<size_t>(length) : 0);
  if (!data.empty()) {
    file.read(reinterpret_cast<char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!file) return IoError(path, "read");
  }
  ParsedHeader header;
  BundleInspection inspection;
  Status status =
      ParseHeaderAndTable(data.data(), data.size(), &header, &inspection.sections);
  if (!status.ok()) return status;
  inspection.version = header.version;
  inspection.flags = header.flags;
  inspection.file_size = data.size();
  inspection.crc_computed = Crc32(data.data(), data.size() - kTrailerBytes);
  inspection.crc_stored = ReadTrailerCrc(data.data(), data.size());
  inspection.crc_ok = inspection.crc_computed == inspection.crc_stored;
  return inspection;
}

std::string BundleInspection::ToString() const {
  std::ostringstream out;
  out << "bundle version : " << version << "\n";
  out << "flags          : " << flags << "\n";
  out << "file size      : " << file_size << " bytes\n";
  char crc_line[96];
  std::snprintf(crc_line, sizeof(crc_line),
                "crc32          : 0x%08x (%s)\n", crc_stored,
                crc_ok ? "ok" : "MISMATCH");
  out << crc_line;
  if (!crc_ok) {
    std::snprintf(crc_line, sizeof(crc_line), "crc32 computed : 0x%08x\n",
                  crc_computed);
    out << crc_line;
  }
  out << "sections (" << sections.size() << "):\n";
  out << "  name                 dtype   offset       bytes\n";
  static const char* kDtypeNames[] = {"bytes", "f64", "i32", "u64"};
  for (const BundleSectionInfo& section : sections) {
    char row[160];
    std::snprintf(row, sizeof(row), "  %-20s %-7s %-12llu %llu\n",
                  section.name.c_str(),
                  kDtypeNames[static_cast<int>(section.dtype)],
                  static_cast<unsigned long long>(section.offset),
                  static_cast<unsigned long long>(section.size));
    out << row;
  }
  return out.str();
}

}  // namespace omnifair
