#include "bench.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

namespace {

constexpr int kSubBits = 8;
constexpr int64_t kSub = int64_t{1} << kSubBits;
constexpr int kBuckets = static_cast<int>(kSub) * (64 - kSubBits + 1);

int BucketOf(int64_t ns) {
  if (ns < kSub) return static_cast<int>(std::max<int64_t>(ns, 0));
  const int e = std::bit_width(static_cast<uint64_t>(ns)) - 1;
  const int64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
  return static_cast<int>(kSub * (e - kSubBits + 1) + sub);
}

// [lower bound, width) of bucket b.
std::pair<double, double> BucketRange(int b) {
  if (b < kSub) return {static_cast<double>(b), 1.0};
  const int e = b / static_cast<int>(kSub) - 1 + kSubBits;
  const int64_t sub = b % kSub;
  const double width = std::ldexp(1.0, e - kSubBits);
  return {std::ldexp(1.0, e) + static_cast<double>(sub) * width, width};
}

}  // namespace

Samples::Samples() : buckets_(kBuckets, 0) {}

void Samples::Add(int64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void Samples::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double Samples::PercentileUs(double p) const {
  if (count_ == 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * count_));
  rank = std::clamp<int64_t>(rank, 1, count_);
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (seen + buckets_[b] >= rank) {
      auto [lo, width] = BucketRange(b);
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) / buckets_[b];
      return (lo + width * frac) / 1000.0;
    }
    seen += buckets_[b];
  }
  return 0;
}

void Windows::Begin() {
  start_ns_ = NowNs();
  ops_ = 0;
}

void Windows::Add(Type type, int64_t ns) {
  window_[type].Add(ns);
  all_[type].Add(ns);
  ++ops_;
}

void Windows::End() {
  const int64_t elapsed_ns = NowNs() - start_ns_;
  if (ops_ == 0) return;
  ops_s_.push_back(Ratio(ops_ * 1e9, elapsed_ns));
  for (int t = 0; t < 2; ++t) {
    if (window_[t].count() == 0) continue;
    p50_us_[t].push_back(window_[t].PercentileUs(50));
    p90_us_[t].push_back(window_[t].PercentileUs(90));
    window_[t].Clear();
  }
}

namespace {

// The value that a share `share` of `values` meet or beat: its quantile
// `share` counted from the best value, interpolated between neighbours.
double MetOrBeaten(std::vector<double> values, double share,
                   bool lower_is_better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (!lower_is_better) std::reverse(values.begin(), values.end());
  const double pos = share * static_cast<double>(values.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= values.size()) return values.back();
  return values[i] + (values[i + 1] - values[i]) * (pos - i);
}

}  // namespace

double Windows::ThroughputOpsS() const {
  return MetOrBeaten(ops_s_, kWindowShare, false);
}
double Windows::P50Us(Type type) const {
  return MetOrBeaten(p50_us_[type], kWindowShare, true);
}
double Windows::P90Us(Type type) const {
  return MetOrBeaten(p90_us_[type], kWindowShare, true);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

int Tracer::Begin(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    it = name_ids_.emplace(std::string(name), static_cast<int>(names_.size()))
             .first;
    names_.emplace_back(name);
  }
  Span span;
  span.name = it->second;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_ns = NowNs();
  open_.pop_back();
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::MedianSelfUs() const {
  std::vector<int64_t> self = SelfNs();
  std::vector<std::vector<double>> by_name(names_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].push_back(static_cast<double>(self[i]) / 1000.0);
  }
  std::map<std::string, double> out;
  for (size_t n = 0; n < names_.size(); ++n) {
    out[names_[n]] = Median(std::move(by_name[n]));
  }
  return out;
}

std::map<std::string, int64_t> Tracer::TotalSelfNs() const {
  std::vector<int64_t> self = SelfNs();
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]] += self[i];
  }
  return out;
}

bool Tracer::Dump(const std::string& path, size_t max_spans) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,op,parent,start_ns,end_ns\n";
  size_t n = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << names_[s.name] << ',' << s.op << ',' << s.parent << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void CounterSums::Add() {
  auto& registry = caldb::obs::MetricRegistry::Global();
  for (const std::string& name : registry.CounterNames()) {
    sums_[name] += registry.counter(name)->value();
  }
}

double CounterSums::operator[](const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : static_cast<double>(it->second);
}

int64_t HistogramPercentile(const char* name, double p) {
  return caldb::obs::MetricRegistry::Global().histogram(name)->Percentile(p);
}

int64_t HistogramSum(const char* name) {
  return caldb::obs::MetricRegistry::Global().histogram(name)->sum();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const Windows& w) {
  using T = Windows::Type;
  report->Set("throughput_ops_s", w.ThroughputOpsS(), "1/s");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("light_p50_us", w.P50Us(T::kLight), "us");
  report->Set("light_p90_us", w.P90Us(T::kLight), "us");
  report->Set("heavy_p50_us", w.P50Us(T::kHeavy), "us");
  report->Set("heavy_p90_us", w.P90Us(T::kHeavy), "us");
  auto join = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      if (!out.empty()) out += ',';
      out += std::to_string(v);
    }
    return out;
  };
  report->meta["setup_s_each"] = join(setup_s);
  report->meta["rounds"] = std::to_string(setup_s.size());
  report->meta["windows"] = std::to_string(w.count());
  report->meta["light_ops"] = std::to_string(w.all(T::kLight).count());
  report->meta["heavy_ops"] = std::to_string(w.all(T::kHeavy).count());
  report->meta["light_p99_us"] =
      std::to_string(w.all(T::kLight).PercentileUs(99));
  report->meta["heavy_p99_us"] =
      std::to_string(w.all(T::kHeavy).PercentileUs(99));
}

void ReportDbCounters(Report* report, const CounterSums& c, double ops) {
  report->Set("db.rows_scanned_per_op",
              Ratio(c["caldb.db.rows_scanned"], ops), "count/op");
  report->Set("db.btree_node_reads_per_op",
              Ratio(c["caldb.btree.node_reads"], ops), "count/op");
  report->Set("db.index_scans_per_op", Ratio(c["caldb.db.index_scans"], ops),
              "count/op");
}

void ReportEvalCounters(Report* report, const CounterSums& c, double ops) {
  const double hits =
      c["caldb.eval.gen_cache.hits"] + c["caldb.eval.gen_cache.covered_hits"];
  report->Set("lang.gen_cache.hit_ratio",
              Ratio(hits, hits + c["caldb.eval.gen_cache.misses"]), "ratio");
  report->Set("lang.generate_calls_per_op",
              Ratio(c["caldb.eval.generate_calls"], ops), "count/op");
  report->Set("lang.intervals_generated_per_op",
              Ratio(c["caldb.eval.intervals_generated"], ops), "count/op");
  report->Set("core.sweep.comparisons_per_op",
              Ratio(c["caldb.sweep.comparisons"], ops), "count/op");
  report->Set("core.sweep.emits_per_op", Ratio(c["caldb.sweep.emits"], ops),
              "count/op");
  report->Set("core.cal.rep_copies_per_op",
              Ratio(c["caldb.cal.rep_copies"], ops), "count/op");
}

void Report::Fail(const std::string& why) {
  if (failed < 5) std::cerr << "perfbench: failed op: " << why << "\n";
  ++failed;
  correct = false;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}, \"meta\": {";
  first = true;
  for (const auto& [key, value] : meta) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

void Die(const std::string& what, const caldb::Status& status) {
  std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

}  // namespace perfbench
