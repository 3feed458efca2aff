#include "trace.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

int Tracer::open(std::string name, long long id) {
  SpanRecord s;
  s.module = name.substr(0, name.find('.'));
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  s.start = now_seconds();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = now_seconds();
  // Scopes close in reverse order of opening, so `span` is on top.
  stack_.pop_back();
}

void Tracer::append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  const int root = stack_.empty() ? -1 : stack_.back();
  for (SpanRecord s : other.spans_) {
    s.parent = s.parent < 0 ? root : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

double Tracer::total_seconds(const std::string& name) const {
  double t = 0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) t += s.end - s.start;
  return t;
}

double Tracer::mean_seconds(const std::string& name) const {
  std::size_t n = 0;
  for (const SpanRecord& s : spans_) n += s.name == name;
  return n ? total_seconds(name) / static_cast<double>(n) : 0.0;
}

std::vector<SpanSummary> Tracer::summarize() const {
  // The benchmark's calls run on one thread, so child spans are disjoint
  // and nested inside their parent: the covered part is their sum.
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_seconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::vector<SpanSummary> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(SpanSummary{s.name, 0, 0, 0});
    SpanSummary& sum = out[it->second];
    sum.count += 1;
    sum.total_seconds += s.end - s.start;
    sum.self_seconds += s.end - s.start - child_seconds[i];
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::map<std::string, int> tids;
  for (const SpanRecord& s : spans_)
    tids.emplace(s.module, static_cast<int>(tids.size()) + 1);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& [module, tid] : tids) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", tid, json_escape(module).c_str());
    first = false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}",
                 first ? "" : ",\n", json_escape(s.name).c_str(),
                 json_escape(s.module).c_str(), tids[s.module],
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent, s.id);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace file " + path);
}

}  // namespace perfbench
