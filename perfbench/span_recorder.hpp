// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's public functions (the program's obs::Tracer stays disabled), so
// a span measures one layer as its callers see it. Spans nest through a
// stack on the single driver thread; each keeps its parent, and a layer's
// self time is its duration minus the time its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    std::string name;
    std::string workload;
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
    std::int64_t parent = kNoParent;
    double child_s = 0.0;  ///< summed duration of direct children

    [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
    /// Children run one after another on the driver thread, so their
    /// summed durations are exactly the part of this span they cover.
    [[nodiscard]] double self() const noexcept { return duration() - child_s; }
  };

  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), epoch_(Clock::now()) {}

  /// RAII scope: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(&rec) {
      id_ = rec.open(std::move(name));
    }
    ~Scope() { rec_->close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Index into spans(); the span is complete once the scope has ended.
    [[nodiscard]] std::size_t id() const noexcept { return id_; }

   private:
    SpanRecorder* rec_;
    std::size_t id_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Summed self time per span name.
  [[nodiscard]] std::map<std::string, double> self_by_name() const {
    std::map<std::string, double> out;
    for (const Span& sp : spans_) out[sp.name] += sp.self();
    return out;
  }

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n", workload_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"workload\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %lld, "
                   "\"self_s\": %.9f}%s\n",
                   i, s.name.c_str(), s.workload.c_str(), s.start_s, s.end_s,
                   static_cast<long long>(s.parent), s.self(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.workload = workload_;
    s.parent = open_.empty() ? kNoParent
                             : static_cast<std::int64_t>(open_.back());
    spans_.push_back(std::move(s));
    const std::size_t id = spans_.size() - 1;
    open_.push_back(id);
    spans_[id].start_s = now();
    return id;
  }

  void close(std::size_t id) {
    const double t = now();
    Span& s = spans_[id];
    s.end_s = t;
    open_.pop_back();
    if (s.parent != kNoParent) {
      spans_[static_cast<std::size_t>(s.parent)].child_s += s.duration();
    }
  }

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
