#include "spans.h"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

/// Open span indices on this thread, innermost last.
thread_local std::vector<std::size_t> open_stack;

}  // namespace

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), tracer_(true) {}

SpanLog::Scope::Scope(Scope&& other) noexcept
    : log_(other.log_), index_(other.index_), span_(std::move(other.span_)) {
  other.log_ = nullptr;
}

void SpanLog::Scope::close() noexcept {
  if (log_ == nullptr) return;
  const Clock::time_point end = Clock::now();  // before the tracer's own cost
  span_.end();
  log_->close(index_, end);
  log_ = nullptr;
}

SpanLog::Scope SpanLog::open(const char* name, std::int64_t request) {
  const std::int64_t parent =
      open_stack.empty() ? -1 : static_cast<std::int64_t>(open_stack.back());
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = records_.size();
    records_.push_back({name, parent, {}, {}, false});
  }
  open_stack.push_back(index);
  cebis::obs::Tracer::Span span = tracer_.span(
      name, "perfbench",
      {{"workload", workload_},
       {"pass", std::to_string(pass_)},
       {"request", std::to_string(request)},
       {"id", std::to_string(index)},
       {"parent", std::to_string(parent)}});
  const Clock::time_point start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[index].start = start;
  }
  return Scope(this, index, std::move(span));
}

void SpanLog::close(std::size_t index, Clock::time_point end) noexcept {
  if (!open_stack.empty() && open_stack.back() == index) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[index].end = end;
  records_[index].closed = true;
}

std::vector<double> SpanLog::self_all() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (!r.closed) continue;
    const double dur = seconds_between(r.start, r.end);
    self[i] += dur;
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= dur;
  }
  return self;
}

std::vector<double> SpanLog::self_times(const char* name) const {
  const std::vector<double> self = self_all();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].closed && std::string_view(records_[i].name) == name) {
      out.push_back(self[i]);
    }
  }
  return out;
}

std::vector<double> SpanLog::durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.closed && std::string_view(r.name) == name) {
      out.push_back(seconds_between(r.start, r.end));
    }
  }
  return out;
}

void SpanLog::print_table(const char* root) const {
  const std::vector<double> self = self_all();
  std::lock_guard<std::mutex> lock(mutex_);
  // Parents open before their children, so one forward pass resolves
  // every record's root.
  std::vector<std::size_t> root_of(records_.size());
  struct Row {
    std::int64_t calls = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  double total = 0.0;
  std::int64_t roots = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    root_of[i] = r.parent < 0 ? i : root_of[static_cast<std::size_t>(r.parent)];
    if (!r.closed || std::string_view(records_[root_of[i]].name) != root) {
      continue;
    }
    Row& row = rows[r.name];
    ++row.calls;
    row.self_s += self[i];
    if (r.parent < 0) {
      total += seconds_between(r.start, r.end);
      ++roots;
    }
  }
  std::printf("self time under %s (%lld root span(s), %.3f ms traced wall):\n",
              root, static_cast<long long>(roots), total * 1e3);
  double sum = 0.0;
  for (const auto& [name, row] : rows) {
    sum += row.self_s;
    const bool is_root = name == root;
    std::printf("  %-30s %9lld calls %11.3f ms %6.2f%% %10.3f us/call%s\n",
                name.c_str(), static_cast<long long>(row.calls),
                row.self_s * 1e3, total > 0.0 ? 100.0 * row.self_s / total : 0.0,
                row.calls > 0 ? 1e6 * row.self_s / static_cast<double>(row.calls)
                              : 0.0,
                is_root ? "  <- covered by no child span" : "");
  }
  std::printf("  %-30s %21.3f ms (sum of rows; equals the traced wall)\n",
              "total", sum * 1e3);
}

void SpanLog::write_json(const std::string& path) const {
  tracer_.write(path);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

}  // namespace perfbench
