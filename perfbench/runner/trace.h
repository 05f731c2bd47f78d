#ifndef PERFBENCH_RUNNER_TRACE_H_
#define PERFBENCH_RUNNER_TRACE_H_

// Outside-in layer timing for the end-to-end benchmark. Spans are recorded
// by the benchmark around its own calls into the library (and by the two
// decorators below, which sit on the Trainer / Classifier interfaces the
// library already calls through), kept in memory, and written out as JSON
// lines once the run ends. Nothing here reaches into the library.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace perfbench {

/// Nanoseconds on the steady clock, relative to an arbitrary fixed origin.
int64_t NowNs();
/// Process CPU time (all threads) in nanoseconds.
int64_t ProcessCpuNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  ///< process CPU consumed between start and end
  int id = 0;
  int parent = -1;     ///< enclosing span on the same thread, -1 at top level
  int run = 0;         ///< repetition the span belongs to
  int64_t rows = 0;    ///< rows handled by the call (0 when not applicable)
};

/// Thread-safe in-memory span store. The enclosing span is tracked per
/// thread, so spans opened on pool threads are top-level there.
class SpanBuffer {
 public:
  int Begin(const std::string& name, int64_t rows = 0);
  void End(int id);

  void set_run(int run);
  std::vector<Span> Snapshot() const;
  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int run_ = 0;              // guarded by mu_
};

/// RAII span; a null buffer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const std::string& name, int64_t rows = 0)
      : buffer_(buffer), id_(buffer ? buffer->Begin(name, rows) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int id_;
};

/// Classifier decorator: one `ml.predict` span per prediction call.
class TracedClassifier : public omnifair::Classifier {
 public:
  TracedClassifier(std::unique_ptr<omnifair::Classifier> inner,
                   SpanBuffer* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::vector<double> PredictProba(const omnifair::Matrix& X) const override;
  std::vector<int> Predict(const omnifair::Matrix& X) const override;
  void AccumulateProba(const omnifair::Matrix& X, size_t row_begin,
                       size_t row_end,
                       std::vector<double>& proba) const override;
  std::string Name() const override { return inner_->Name(); }

  /// Hands back the wrapped model (WriteBundle dispatches on the concrete
  /// type, so the decorator must come off before packing).
  std::unique_ptr<omnifair::Classifier> Release() { return std::move(inner_); }

 private:
  std::unique_ptr<omnifair::Classifier> inner_;
  SpanBuffer* spans_;
};

/// Trainer decorator: one `ml.fit` span per Fit; returned models are wrapped
/// in TracedClassifier. Every other Trainer hook forwards to the inner one.
class TracedTrainer : public omnifair::Trainer {
 public:
  TracedTrainer(std::unique_ptr<omnifair::Trainer> inner, SpanBuffer* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::unique_ptr<omnifair::Classifier> Fit(
      const omnifair::Matrix& X, const std::vector<int>& y,
      const std::vector<double>& weights) override;
  using omnifair::Trainer::Fit;

  std::string Name() const override { return inner_->Name(); }
  std::unique_ptr<omnifair::Trainer> Clone() const override;
  bool SupportsWarmStart() const override { return inner_->SupportsWarmStart(); }
  void SetWarmStart(bool enabled) override { inner_->SetWarmStart(enabled); }
  void ResetWarmStart() override { inner_->ResetWarmStart(); }

 private:
  std::unique_ptr<omnifair::Trainer> inner_;
  SpanBuffer* spans_;
};

/// Strips a TracedClassifier, if that is what `model` holds.
std::unique_ptr<omnifair::Classifier> Unwrap(
    std::unique_ptr<omnifair::Classifier> model);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_TRACE_H_
