#include "runner/trace.h"

#include <chrono>
#include <cstdio>
#include <ctime>

namespace perfbench {
namespace {

// Innermost open span on this thread (-1: none).
thread_local int t_current_span = -1;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

int SpanBuffer::Begin(const std::string& name, int64_t rows) {
  Span span;
  span.name = name;
  span.rows = rows;
  span.parent = t_current_span;
  span.cpu_ns = ProcessCpuNs();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  span.run = run_;
  spans_.push_back(std::move(span));
  t_current_span = spans_.back().id;
  return t_current_span;
}

void SpanBuffer::End(int id) {
  const int64_t end = NowNs();
  const int64_t cpu = ProcessCpuNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = end;
  span.cpu_ns = cpu - span.cpu_ns;
  t_current_span = span.parent;
}

void SpanBuffer::set_run(int run) {
  std::lock_guard<std::mutex> lock(mu_);
  run_ = run;
}

std::vector<Span> SpanBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanBuffer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : Snapshot()) {
    std::fprintf(out,
                 "{\"id\":%d,\"parent\":%d,\"run\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld,"
                 "\"rows\":%lld}\n",
                 s.id, s.parent, s.run, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns),
                 static_cast<long long>(s.rows));
  }
  return std::fclose(out) == 0;
}

std::vector<double> TracedClassifier::PredictProba(
    const omnifair::Matrix& X) const {
  ScopedSpan span(spans_, "ml.predict", static_cast<int64_t>(X.rows()));
  return inner_->PredictProba(X);
}

std::vector<int> TracedClassifier::Predict(const omnifair::Matrix& X) const {
  ScopedSpan span(spans_, "ml.predict", static_cast<int64_t>(X.rows()));
  return inner_->Predict(X);
}

void TracedClassifier::AccumulateProba(const omnifair::Matrix& X,
                                       size_t row_begin, size_t row_end,
                                       std::vector<double>& proba) const {
  ScopedSpan span(spans_, "ml.predict",
                  static_cast<int64_t>(row_end - row_begin));
  inner_->AccumulateProba(X, row_begin, row_end, proba);
}

std::unique_ptr<omnifair::Classifier> TracedTrainer::Fit(
    const omnifair::Matrix& X, const std::vector<int>& y,
    const std::vector<double>& weights) {
  std::unique_ptr<omnifair::Classifier> model;
  {
    ScopedSpan span(spans_, "ml.fit", static_cast<int64_t>(X.rows()));
    model = inner_->Fit(X, y, weights);
  }
  if (model == nullptr) return nullptr;
  return std::make_unique<TracedClassifier>(std::move(model), spans_);
}

std::unique_ptr<omnifair::Trainer> TracedTrainer::Clone() const {
  std::unique_ptr<omnifair::Trainer> clone = inner_->Clone();
  if (clone == nullptr) return nullptr;
  return std::make_unique<TracedTrainer>(std::move(clone), spans_);
}

std::unique_ptr<omnifair::Classifier> Unwrap(
    std::unique_ptr<omnifair::Classifier> model) {
  if (auto* traced = dynamic_cast<TracedClassifier*>(model.get())) {
    return traced->Release();
  }
  return model;
}

}  // namespace perfbench
